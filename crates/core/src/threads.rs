//! Multithreaded drivers: bwa's `kt_pipeline` × `kt_for` shape on one
//! pool of persistent workers.
//!
//! A [`Pool`] is the `kt_for` half and the process's only slab executor:
//! `mem2 mem`, the paired-end window driver and the `mem2 serve` daemon
//! all run on it. Its `N` members are spawned once and drain **one
//! FIFO**. A [`Seat::map`] call pushes one entry with a shared claim
//! cursor; a member claims one slab of the front entry and requeues the
//! entry at the back while slabs are left, so the queue is round-robin
//! per slab. The thread that called `map` claims slabs of its own entry
//! only, then waits for the rest. Each result lands in the slot indexed
//! by its slab number, so the assembled output is a pure function of the
//! input — thread count and scheduling order never reach the SAM byte
//! stream. Each member owns one [`Worker`] arena per options
//! fingerprint, so no arena is ever lent. Under [`Pool::serve`] the FIFO
//! also carries [`Jobs`] (the daemon's requests), each popped whole by
//! one worker. Every caller cuts slabs by one rule, [`slab_len`].
//!
//! [`stream_batches_parallel`] is the `kt_pipeline` half, three
//! steps joined by rendezvous channels: the producer decodes batch N+1
//! (gzip inflate + FASTQ parse) ‖ the pool aligns batch N ‖ the calling
//! thread writes batch N−1. At most three batches are resident whatever
//! the thread count. The ingestion batch stays the unit of output order
//! and of the [`FlushHook`] (checkpoint commit); batch size bounds memory
//! and checkpoint granularity, not parallelism.
//!
//! [`align_reads_parallel`] runs the same slab loop over one in-memory
//! batch, so there is a single scheduling implementation.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::convert::Infallible;
use std::fmt;
use std::io::Write;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
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

/// Busy time and slab count of one pool member, readable while the pool
/// runs (`serve`'s STATS and `/metrics`). Relaxed: statistics, they
/// order nothing.
#[derive(Default)]
struct SlotStats {
    busy_ns: AtomicU64,
    slabs: AtomicU64,
}

/// One pool thread's private state. Its arenas are never lent: a slab
/// always runs on the arena of the thread that claimed it.
struct Member {
    /// Index of this member's [`SlotStats`].
    slot: usize,
    /// One [`Worker`] arena per options fingerprint (the BSW engines bake
    /// in scoring, so each distinct option set gets, and reuses, its own).
    arenas: HashMap<String, Worker>,
    /// Stage times of the [`Seat::map`] calls this member made, plus the
    /// serial sections it timed between them.
    times: StageTimes,
}

impl Member {
    fn new(slot: usize) -> Self {
        Member {
            slot,
            arenas: HashMap::new(),
            times: StageTimes::default(),
        }
    }
}

/// A slab body with its result slot, as the pool's threads call it.
type SlabBody<'a> = dyn Fn(&mut Worker, usize) + Sync + 'a;

/// One [`Seat::map`] call: `kt_for`'s shared counter over `n_slabs` slabs.
struct MapTask {
    /// Options fingerprint: which of a member's arenas runs the slabs.
    key: String,
    opts: MemOpts,
    n_slabs: usize,
    /// The next unclaimed slab; at or past `n_slabs` once every slab is
    /// claimed or the call is cancelled. Relaxed: it only hands out
    /// indices; results and completions are published through `done`.
    next: AtomicUsize,
    /// The caller's body. Its real lifetime is the `map` call's: only a
    /// thread holding a claimed index calls it, and `map` does not return
    /// or unwind before every claimed slab has finished.
    body: &'static SlabBody<'static>,
    done: Mutex<Done>,
    finished: Condvar,
}

/// What the finished slabs of one map call left behind.
#[derive(Default)]
struct Done {
    slabs: usize,
    /// Stage times of the slabs other members ran.
    times: Option<StageTimes>,
    /// The first slab panic, re-raised by the caller.
    panic: Option<Box<dyn Any + Send>>,
}

impl MapTask {
    fn claim(&self) -> Option<usize> {
        let k = self.next.fetch_add(1, Ordering::Relaxed);
        (k < self.n_slabs).then_some(k)
    }

    /// Close the task to further claims; returns how many were claimed.
    fn cancel(&self) -> usize {
        self.next
            .fetch_max(self.n_slabs, Ordering::Relaxed)
            .min(self.n_slabs)
    }

    /// Run claimed slab `k` on `member`'s arena for the task's options.
    /// A panic is caught here: that arena, possibly torn, is dropped,
    /// the unclaimed slabs are cancelled and the payload is kept for the
    /// caller. The slab's stage times go to the caller, not the arena:
    /// merged straight into `member`'s when it is the `caller`, through
    /// [`Done`] otherwise, and the arena's accumulator is then reset in
    /// place.
    fn run(&self, member: &mut Member, k: usize, stats: &SlotStats, caller: bool) {
        let t = Instant::now();
        let Member { arenas, times, .. } = member;
        let worker = arenas
            .entry(self.key.clone())
            .or_insert_with(|| Worker::new(&self.opts));
        let outcome = catch_unwind(AssertUnwindSafe(|| (self.body)(worker, k)));
        stats
            .busy_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        stats.slabs.fetch_add(1, Ordering::Relaxed);
        let mut done = self.done.lock().unwrap_or_else(PoisonError::into_inner);
        done.slabs += 1;
        match outcome {
            Ok(()) => {
                let into = if caller {
                    times
                } else {
                    done.times.get_or_insert_with(StageTimes::default)
                };
                into.merge(&worker.times);
                worker.times.reset();
            }
            Err(payload) => {
                arenas.remove(&self.key);
                self.cancel();
                done.panic.get_or_insert(payload);
            }
        }
        self.finished.notify_all();
    }
}

/// Drop guard of [`Seat::map`]: closes the task to new claims and waits
/// for every claimed slab, whether `map` returns or unwinds.
struct Joined<'a>(&'a MapTask);

impl Drop for Joined<'_> {
    fn drop(&mut self) {
        let claimed = self.0.cancel();
        let mut done = self.0.done.lock().unwrap_or_else(PoisonError::into_inner);
        while done.slabs < claimed {
            done = self
                .0
                .finished
                .wait(done)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// What a pool built by [`Pool::serve`] does with the jobs submitted to
/// it (the `mem2 serve` daemon's requests).
pub trait Jobs: Send + Sync + 'static {
    /// One submitted job.
    type Job: Send + 'static;
    /// Whether `next`, queued behind the `group` a worker just popped
    /// (`group[0]` first), runs with it. Queued jobs are offered in
    /// queue order; the rest keep their order.
    fn joins(&self, group: &[Self::Job], next: &Self::Job) -> bool;
    /// Run one popped group on the worker that popped it. `seat` is that
    /// worker: its [`Seat::map`] calls spread over the whole pool.
    fn run(&self, seat: &mut Seat<'_>, group: Vec<Self::Job>);
}

/// A [`Pool::new`] pool takes no jobs: its only caller is the lead.
impl Jobs for () {
    type Job = Infallible;

    fn joins(&self, _: &[Infallible], next: &Infallible) -> bool {
        match *next {}
    }

    fn run(&self, _: &mut Seat<'_>, group: Vec<Infallible>) {
        if let Some(never) = group.into_iter().next() {
            match never {}
        }
    }
}

/// One FIFO entry.
enum Entry<J> {
    /// A map call's slabs: a worker claims one, then requeues the entry
    /// at the back while slabs are left.
    Map(Arc<MapTask>),
    /// A job, popped whole together with the queued jobs that join it.
    Job(J),
}

struct Queue<J> {
    entries: VecDeque<Entry<J>>,
    /// `Job` entries in `entries`: submitted and not yet started.
    waiting: usize,
    draining: bool,
    /// Slots whose worker is not spawned yet: a [`Pool::new`] pool
    /// spawns them at its first map of more than one slab, so a run that
    /// never needs a second thread starts none.
    unspawned: Range<usize>,
    /// Joined by the first drain.
    workers: Vec<JoinHandle<Member>>,
}

struct Shared<J: Jobs> {
    jobs: J,
    queue: Mutex<Queue<J::Job>>,
    /// Signals the workers that the queue gained an entry (or drain
    /// started).
    work: Condvar,
    /// One per member, by slot.
    stats: Box<[SlotStats]>,
}

/// What a [`Seat`] needs of its pool, whatever the pool's job type.
trait SlabQueue: Sync {
    fn push(&self, task: Arc<MapTask>);
    fn stats(&self, slot: usize) -> &SlotStats;
    fn threads(&self) -> usize;
}

impl<J: Jobs> SlabQueue for Arc<Shared<J>> {
    fn push(&self, task: Arc<MapTask>) {
        let mut q = self.queue.lock().expect("pool queue poisoned");
        self.spawn(&mut q);
        q.entries.push_back(Entry::Map(task));
        drop(q);
        self.work.notify_all();
    }

    fn stats(&self, slot: usize) -> &SlotStats {
        &self.stats[slot]
    }

    fn threads(&self) -> usize {
        self.stats.len()
    }
}

/// What a worker took off the queue.
enum Popped<J> {
    Slab(Arc<MapTask>, usize),
    Group(Vec<J>),
}

impl<J: Jobs> Shared<J> {
    /// Spawn the workers not running yet (none once draining).
    fn spawn(self: &Arc<Self>, q: &mut Queue<J::Job>) {
        if q.draining {
            return;
        }
        for slot in std::mem::replace(&mut q.unspawned, 0..0) {
            let shared = Arc::clone(self);
            let worker = std::thread::Builder::new()
                .name(format!("mem2-worker-{slot}"))
                .spawn(move || shared.work(Member::new(slot)))
                .expect("spawn a pool worker");
            q.workers.push(worker);
        }
    }

    /// Block for the front entry; `None` once draining and empty.
    fn pop(&self) -> Option<Popped<J::Job>> {
        let mut q = self.queue.lock().expect("pool queue poisoned");
        loop {
            match q.entries.pop_front() {
                Some(Entry::Map(task)) => {
                    // an entry whose slabs are all claimed is dropped
                    if let Some(k) = task.claim() {
                        if k + 1 < task.n_slabs {
                            q.entries.push_back(Entry::Map(Arc::clone(&task)));
                        }
                        return Some(Popped::Slab(task, k));
                    }
                }
                Some(Entry::Job(first)) => {
                    q.waiting -= 1;
                    let mut group = vec![first];
                    let mut i = 0;
                    while i < q.entries.len() {
                        match &q.entries[i] {
                            Entry::Job(next) if self.jobs.joins(&group, next) => {
                                let Some(Entry::Job(next)) = q.entries.remove(i) else {
                                    unreachable!("matched above");
                                };
                                q.waiting -= 1;
                                group.push(next);
                            }
                            _ => i += 1,
                        }
                    }
                    return Some(Popped::Group(group));
                }
                None if q.draining => return None,
                None => q = self.work.wait(q).expect("pool queue poisoned"),
            }
        }
    }

    /// A worker thread: drain the FIFO until the pool drains.
    fn work(self: Arc<Self>, mut member: Member) -> Member {
        while let Some(popped) = self.pop() {
            match popped {
                Popped::Slab(task, k) => {
                    let stats = &self.stats[member.slot];
                    task.run(&mut member, k, stats, false);
                }
                Popped::Group(group) => {
                    let members = self.threads();
                    self.jobs.run(
                        &mut Seat {
                            pool: &self,
                            member: &mut member,
                            members,
                        },
                        group,
                    );
                }
            }
        }
        member
    }
}

/// The process's one slab executor: `threads` members that drain one
/// FIFO of map entries (and, under `serve`, of jobs). Worker threads
/// are spawned once and live as long as the pool.
pub struct Pool<J: Jobs = ()> {
    shared: Arc<Shared<J>>,
    /// The calling thread's member (slot 0) of a [`Pool::new`] pool.
    lead: Option<Member>,
}

impl Pool {
    /// A pool of `threads` members (at least one): the calling thread,
    /// which drives it through [`Pool::seat`], plus `threads − 1`
    /// workers, spawned by the first map that has slabs to share.
    pub fn new(threads: usize) -> Pool {
        let mut pool = Pool::start((), threads.max(1), 1);
        pool.lead = Some(Member::new(0));
        pool
    }

    /// The calling thread's seat.
    pub fn seat(&mut self) -> Seat<'_> {
        Seat {
            pool: &self.shared,
            member: self.lead.as_mut().expect("a Pool::new pool has a lead"),
            members: self.shared.threads(),
        }
    }

    /// Join the workers: the lead's stage times (every map call and
    /// serial section is the lead's), extension counters summed over
    /// every arena, and the
    /// scheduling counters (`align_wall` and `batches_resident_max` are
    /// the caller's to fill in).
    fn finish(mut self) -> (StageTimes, ExtendStats, SchedStats) {
        let lead = self.lead.take().expect("a Pool::new pool has a lead");
        let members = self.join();
        let mut extension = ExtendStats::default();
        for worker in members
            .iter()
            .chain([&lead])
            .flat_map(|m| m.arenas.values())
        {
            extension.merge(&worker.extension);
        }
        (lead.times, extension, self.sched_stats())
    }
}

impl<J: Jobs> Pool<J> {
    /// A pool of `threads` spawned workers (at least one) that run the
    /// jobs [`Pool::submit`] queues with `jobs`.
    pub fn serve(jobs: J, threads: usize) -> Pool<J> {
        let pool = Pool::start(jobs, threads.max(1), 0);
        pool.shared
            .spawn(&mut pool.shared.queue.lock().expect("pool queue poisoned"));
        pool
    }

    /// `threads` members; slots from `first` on are worker threads.
    fn start(jobs: J, threads: usize, first: usize) -> Pool<J> {
        let shared = Arc::new(Shared {
            jobs,
            queue: Mutex::new(Queue {
                entries: VecDeque::new(),
                waiting: 0,
                draining: false,
                unspawned: first..threads,
                workers: Vec::new(),
            }),
            work: Condvar::new(),
            stats: (0..threads).map(|_| SlotStats::default()).collect(),
        });
        Pool { shared, lead: None }
    }

    /// The job policy the pool was built with.
    pub fn jobs(&self) -> &J {
        &self.shared.jobs
    }

    /// Queue `job` behind everything queued, unless `cap` jobs are
    /// already waiting or the pool is draining: then it comes back.
    pub fn submit(&self, job: J::Job, cap: usize) -> Result<(), J::Job> {
        let mut q = self.shared.queue.lock().expect("pool queue poisoned");
        if q.draining || q.waiting >= cap {
            return Err(job);
        }
        q.entries.push_back(Entry::Job(job));
        q.waiting += 1;
        drop(q);
        self.shared.work.notify_one();
        Ok(())
    }

    /// Jobs submitted and not yet started.
    pub fn queued_jobs(&self) -> usize {
        self.shared
            .queue
            .lock()
            .expect("pool queue poisoned")
            .waiting
    }

    /// Busy time and slab count per member so far (`align_wall` and
    /// `batches_resident_max` left zero).
    pub fn sched_stats(&self) -> SchedStats {
        let stats = &self.shared.stats;
        SchedStats {
            worker_busy: stats
                .iter()
                .map(|s| Duration::from_nanos(s.busy_ns.load(Ordering::Relaxed)))
                .collect(),
            slabs_per_worker: stats
                .iter()
                .map(|s| s.slabs.load(Ordering::Relaxed) as usize)
                .collect(),
            ..SchedStats::default()
        }
    }

    /// Refuse further jobs, let the workers finish everything queued,
    /// then join them. Idempotent.
    pub fn drain(&self) {
        self.join();
    }

    fn join(&self) -> Vec<Member> {
        let mut q = self
            .shared
            .queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        q.draining = true;
        let workers = std::mem::take(&mut q.workers);
        drop(q);
        self.shared.work.notify_all();
        workers.into_iter().filter_map(|w| w.join().ok()).collect()
    }
}

impl<J: Jobs> Drop for Pool<J> {
    fn drop(&mut self) {
        self.join();
    }
}

/// One pool member's view while it drives work: the lead of a
/// [`Pool::new`] pool, or the worker running a [`Jobs::run`] group.
pub struct Seat<'a> {
    pool: &'a dyn SlabQueue,
    member: &'a mut Member,
    /// Members a batch is cut for ([`Seat::slab_len`]).
    members: usize,
}

impl Seat<'_> {
    /// Run `body(worker, k)` for every slab `k` in `0..n_slabs` and
    /// return the results in slab order; each runs on the claiming
    /// thread's arena for `opts`.
    ///
    /// The call pushes one entry to the back of the pool's FIFO, and idle
    /// members claim its slabs one at a time off a shared cursor (bwa's
    /// `kt_for`), requeueing it behind whatever arrived meanwhile. The
    /// calling thread claims slabs of this entry only, then waits for
    /// the rest, so each result lands in the slot of its slab index and
    /// the returned order, and anything built from it, does not depend
    /// on which member ran which slab.
    ///
    /// A panicking slab is caught on its thread, which drops only its
    /// arena for `opts`; the unclaimed slabs are cancelled and, once
    /// every claimed slab has finished, the first payload is re-raised
    /// here.
    pub fn map<R, F>(&mut self, opts: &MemOpts, n_slabs: usize, body: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&mut Worker, usize) -> R + Sync,
    {
        let slots: Vec<Mutex<Option<R>>> = (0..n_slabs).map(|_| Mutex::new(None)).collect();
        let run = |worker: &mut Worker, k: usize| {
            let r = body(worker, k);
            *slots[k].lock().unwrap_or_else(PoisonError::into_inner) = Some(r);
        };
        let run: &SlabBody<'_> = &run;
        // SAFETY: the pool's threads outlive this call, so the body's
        // lifetime is erased to share it with them. `MapTask::body` is
        // called only by a thread that claimed a slab index below
        // `n_slabs`. `Joined` closes the cursor to new claims and waits
        // until every claimed slab has finished, and it is dropped before
        // `run`, `body` and `slots` on both the return and the unwind
        // path. Entries left in the queue afterwards fail every claim and
        // never call the body.
        let body: &'static SlabBody<'static> =
            unsafe { std::mem::transmute::<&SlabBody<'_>, &'static SlabBody<'static>>(run) };
        let task = Arc::new(MapTask {
            key: format!("{opts:?}"),
            opts: *opts,
            n_slabs,
            next: AtomicUsize::new(0),
            body,
            done: Mutex::default(),
            finished: Condvar::new(),
        });
        {
            let _joined = Joined(&task);
            if n_slabs > 1 && self.pool.threads() > 1 {
                self.pool.push(Arc::clone(&task));
            }
            let stats = self.pool.stats(self.member.slot);
            while let Some(k) = task.claim() {
                task.run(self.member, k, stats, true);
            }
        }
        let done = std::mem::take(&mut *task.done.lock().unwrap_or_else(PoisonError::into_inner));
        if let Some(times) = done.times {
            self.member.times.merge(&times);
        }
        if let Some(payload) = done.panic {
            resume_unwind(payload);
        }
        slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .unwrap_or_else(PoisonError::into_inner)
                    .expect("every slab ran once")
            })
            .collect()
    }

    /// Slab length for `items` items on this seat's members: see
    /// [`slab_len`].
    pub fn slab_len(&self, items: usize, cap: usize) -> usize {
        slab_len(items, cap, self.members)
    }

    /// Cut batches for `members` members (clamped to the pool's size)
    /// instead of all of them: the daemon spreads a request only as far
    /// as its size asks.
    pub fn spread(&mut self, members: usize) {
        self.members = members.clamp(1, self.pool.threads());
    }

    /// This seat's stage times: every map call's slabs, wherever they
    /// ran, plus the serial sections added here.
    pub fn times(&mut self) -> &mut StageTimes {
        &mut self.member.times
    }

    /// This seat's stage times since the last take, leaving them empty.
    pub fn take_times(&mut self) -> StageTimes {
        std::mem::take(&mut self.member.times)
    }
}

/// Slab length for `items` items over `members` pool members:
/// `min(cap, ⌈items ÷ members⌉)`, at least 1. A batch of at least
/// `members × cap` items is cut into full `cap` slabs; a smaller one is
/// still spread over every member. `cap` is `batch_reads`
/// (`batch_reads / 2` for pairs).
pub fn slab_len(items: usize, cap: usize, members: usize) -> usize {
    cap.min(items.div_ceil(members.max(1))).max(1)
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
    let mut pool = Pool::new(n_threads);
    let mut seat = pool.seat();
    let slab_len = seat.slab_len(reads.len(), aligner.opts.batch_reads);
    let slabs: Vec<&[FastqRecord]> = reads.chunks(slab_len).collect();
    let per_slab = seat.map(&aligner.opts, slabs.len(), |worker, k| {
        let ctx = aligner.context();
        let prepared: Vec<PreparedRead> = slabs[k].iter().map(PreparedRead::from_fastq).collect();
        let regs = align(&ctx, worker, &prepared);
        regions_to_records(&ctx, &prepared, &regs, &mut worker.times)
    });
    let records = per_slab.into_iter().flatten().flatten().collect();
    (records, pool.finish().0)
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
/// records to `out` in input order, running `on_flush` (the `--checkpoint`
/// path of `mem2 mem`) after each batch.
///
/// `batches` is typically a [`mem2_seqio::BatchReader`]; any iterator of
/// batch results works. Every batch is cut into [`slab_len`] slabs
/// shared by all workers, so batch size sets resident memory and
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
    on_flush: Option<FlushHook<'_, W>>,
) -> Result<(StreamSummary, StageTimes), StreamError>
where
    I: IntoIterator<Item = Result<Vec<FastqRecord>, SeqIoError>>,
    I::IntoIter: Send,
    W: Write,
{
    stream_batches_parallel(
        batches,
        n_threads,
        out,
        on_flush,
        |batch: &Vec<FastqRecord>| batch.len(),
        |seat, batch| {
            let slab_len = seat.slab_len(batch.len(), aligner.opts.batch_reads);
            let slabs = split_slabs(batch, slab_len);
            seat.map(&aligner.opts, slabs.len(), |worker, k| {
                align_slab_to_text(aligner, worker, take_slab(&slabs, k))
            })
        },
    )
}

/// The generic three-step batch pipeline behind [`align_stream_parallel`]
/// (and the paired-end driver in `mem2-pairing`): a producer thread pulls
/// batches of any type `T` off the input iterator, the align step turns
/// each batch into slab-ordered SAM text with `process`, and the calling
/// thread writes batches in input order, then runs the optional
/// [`FlushHook`] — the checkpoint journal's attachment point. The writer
/// is the calling thread, so the sink and the hook may hold non-`Send`
/// state (a locked stdout).
///
/// `count_reads` reports how many reads a batch holds (for the summary);
/// `process` runs on the align thread, the lead of the run's [`Pool`],
/// and spreads the batch over all members with [`Seat::map`].
///
/// The steps hand batches over rendezvous channels: the producer may
/// finish decoding batch N+1 but not start N+2 until the align step has
/// taken N+1, and the align step may finish N but not start N+1 until
/// the writer has taken N. At most three batches are resident.
pub fn stream_batches_parallel<T, I, W, C, P>(
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
    P: Fn(&mut Seat<'_>, T) -> Vec<SlabOut> + Sync,
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

        // -- align step: the whole pool on one batch at a time --
        let align = scope.spawn(|| {
            let (batch_rx, text_tx) = (batch_rx, text_tx); // dropped on exit
            let mut pool = Pool::new(n_threads);
            let mut align_wall = Duration::ZERO;
            for batch in batch_rx {
                let t = Instant::now();
                let slabs = process(&mut pool.seat(), batch);
                align_wall += t.elapsed();
                if text_tx.send(slabs).is_err() {
                    break; // writer tore down early
                }
            }
            let (times, extension, sched) = pool.finish();
            (
                times,
                extension,
                SchedStats {
                    align_wall,
                    ..sched
                },
            )
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
    use std::collections::HashSet;
    use std::sync::mpsc::channel;
    use std::sync::Barrier;

    const PATIENCE: Duration = Duration::from_secs(60);

    fn slab(text: &str) -> SlabOut {
        SlabOut {
            bytes: text.as_bytes().to_vec(),
            records: 1,
        }
    }

    /// A job policy for tests: each job is a closure run on the worker
    /// that pops it; jobs never coalesce.
    struct Closures;

    type Closure = Box<dyn FnOnce(&mut Seat<'_>) + Send>;

    impl Jobs for Closures {
        type Job = Closure;

        fn joins(&self, _: &[Closure], _: &Closure) -> bool {
            false
        }

        fn run(&self, seat: &mut Seat<'_>, group: Vec<Closure>) {
            for job in group {
                job(seat);
            }
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
            vec![Ok(4usize)],
            2,
            &mut out,
            None,
            |n: &usize| *n,
            |seat, n_slabs| {
                seat.map(&MemOpts::default(), n_slabs, |_, k| {
                    if k == 0 {
                        // this worker is parked here, so whoever reports
                        // a claim is a second worker
                        claimed_rx
                            .lock()
                            .unwrap()
                            .recv_timeout(PATIENCE)
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
            let mut pool = Pool::new(threads);
            for n in [0usize, 1, 2, 7, 33] {
                let got = pool.seat().map(&MemOpts::default(), n, |_, k| k * k);
                let want: Vec<usize> = (0..n).map(|k| k * k).collect();
                assert_eq!(got, want, "threads={threads} n={n}");
            }
            let (_, _, sched) = pool.finish();
            assert_eq!(sched.slabs_per_worker.len(), threads);
            assert_eq!(sched.slabs_per_worker.iter().sum::<usize>(), 1 + 2 + 7 + 33);
        }
    }

    /// A panic on a pool worker reaches the caller with its own payload,
    /// and the pool keeps serving on both members afterwards.
    #[test]
    fn par_map_carries_a_helper_panic_message() {
        let caller = std::thread::current().id();
        let (tx, rx) = channel::<()>();
        let (tx, rx) = (Mutex::new(tx), Mutex::new(rx));
        let mut pool = Pool::new(2);
        let opts = MemOpts::default();
        let payload = catch_unwind(AssertUnwindSafe(|| {
            pool.seat().map(&opts, 2, |_, _| {
                if std::thread::current().id() == caller {
                    // hold this slab until the worker has claimed the other
                    rx.lock()
                        .unwrap()
                        .recv_timeout(PATIENCE)
                        .expect("the worker claimed a slab");
                } else {
                    tx.lock().unwrap().send(()).expect("receiver lives");
                    panic!("helper slab failed");
                }
            })
        }))
        .expect_err("the worker's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"helper slab failed"));
        let got = pool.seat().map(&opts, 9, |_, k| k + 1);
        assert_eq!(got, (1..=9).collect::<Vec<_>>());
    }

    /// The caller's slab panics while a worker's slab is still writing to
    /// the caller's stack: `map` unwinds only after that write.
    #[test]
    fn a_caller_panic_waits_for_the_workers_borrowed_writes() {
        let caller = std::thread::current().id();
        let (tx, rx) = channel::<()>();
        let (tx, rx) = (Mutex::new(tx), Mutex::new(rx));
        let written = AtomicUsize::new(0);
        let mut pool = Pool::new(2);
        let payload = catch_unwind(AssertUnwindSafe(|| {
            pool.seat().map(&MemOpts::default(), 2, |_, _| {
                if std::thread::current().id() == caller {
                    rx.lock()
                        .unwrap()
                        .recv_timeout(PATIENCE)
                        .expect("the worker claimed a slab");
                    panic!("caller slab failed");
                } else {
                    tx.lock().unwrap().send(()).expect("receiver lives");
                    std::thread::sleep(Duration::from_millis(50));
                    written.store(1, Ordering::SeqCst);
                }
            })
        }))
        .expect_err("the caller's panic is re-raised");
        assert_eq!(
            written.load(Ordering::SeqCst),
            1,
            "map unwound before the worker's slab finished"
        );
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"caller slab failed"));
    }

    /// Workers persist: a 3-member pool runs every body of 100 map calls
    /// on the same 3 threads. Each call's 3 slabs meet at a barrier, so
    /// every call needs 3 threads at once.
    #[test]
    fn a_pool_spawns_its_workers_once() {
        let mut pool = Pool::new(3);
        let barrier = Barrier::new(3);
        let ids = Mutex::new(HashSet::new());
        for _ in 0..100 {
            pool.seat().map(&MemOpts::default(), 3, |_, _| {
                ids.lock().unwrap().insert(std::thread::current().id());
                barrier.wait();
            });
        }
        assert_eq!(ids.into_inner().unwrap().len(), 3);
    }

    /// Round robin per slab: a job queued behind a 6-slab map entry waits
    /// for the one slab queued ahead of it, not for the entry's rest. The
    /// caller's own slab is held until the job has run, so the other
    /// worker's order is fixed: two slabs, then the job.
    #[test]
    fn a_job_waits_behind_one_slab_of_a_large_map() {
        let pool = Pool::serve(Closures, 2);
        let log = Arc::new(Mutex::new(Vec::<String>::new()));
        let (started_tx, started_rx) = channel::<()>();
        let (go_tx, go_rx) = channel::<()>();
        let (ran_tx, ran_rx) = channel::<()>();
        let (done_tx, done_rx) = channel::<()>();
        let large: Closure = {
            let log = Arc::clone(&log);
            let (started_tx, go_rx, ran_rx) = (
                Mutex::new(started_tx),
                Mutex::new(go_rx),
                Mutex::new(ran_rx),
            );
            let done_tx = done_tx.clone();
            Box::new(move |seat: &mut Seat<'_>| {
                let caller = std::thread::current().id();
                let first = AtomicUsize::new(0);
                seat.map(&MemOpts::default(), 6, |_, k| {
                    if std::thread::current().id() == caller {
                        if first.fetch_add(1, Ordering::SeqCst) == 0 {
                            ran_rx
                                .lock()
                                .unwrap()
                                .recv_timeout(PATIENCE)
                                .expect("job ran");
                        }
                        return;
                    }
                    let mut log = log.lock().unwrap();
                    log.push(k.to_string());
                    if log.len() == 1 {
                        drop(log);
                        started_tx.lock().unwrap().send(()).expect("test lives");
                        go_rx.lock().unwrap().recv_timeout(PATIENCE).expect("go");
                    }
                });
                done_tx.send(()).expect("test lives");
            })
        };
        assert!(pool.submit(large, 8).is_ok());
        started_rx
            .recv_timeout(PATIENCE)
            .expect("the other worker took a slab");
        let small: Closure = {
            let log = Arc::clone(&log);
            Box::new(move |seat: &mut Seat<'_>| {
                seat.map(&MemOpts::default(), 1, |_, _| {
                    log.lock().unwrap().push("job".into());
                });
                ran_tx.send(()).expect("the large map waits");
                done_tx.send(()).expect("test lives");
            })
        };
        assert!(pool.submit(small, 8).is_ok());
        go_tx.send(()).expect("slab waits");
        for _ in 0..2 {
            done_rx.recv_timeout(PATIENCE).expect("both jobs finish");
        }
        let log = log.lock().unwrap();
        assert_eq!(log.iter().position(|s| s == "job"), Some(2), "{log:?}");
    }

    /// Two large maps and a stream of small jobs at once never run more
    /// slab bodies at a time than the pool has members.
    #[test]
    fn running_bodies_never_exceed_the_pool_size() {
        const N: usize = 3;
        let pool = Pool::serve(Closures, N);
        let running = Arc::new(AtomicUsize::new(0));
        let high = Arc::new(AtomicUsize::new(0));
        let (done_tx, done_rx) = channel::<usize>();
        let jobs: Vec<(usize, u64)> = [(12, 2), (12, 2)]
            .into_iter()
            .chain(std::iter::repeat_n((1, 1), 8))
            .collect();
        for &(n_slabs, ms) in &jobs {
            let (running, high, done_tx) =
                (Arc::clone(&running), Arc::clone(&high), done_tx.clone());
            let job: Closure = Box::new(move |seat: &mut Seat<'_>| {
                let got = seat.map(&MemOpts::default(), n_slabs, |_, k| {
                    let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                    high.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(ms));
                    running.fetch_sub(1, Ordering::SeqCst);
                    k
                });
                done_tx.send(got.len()).expect("test lives");
            });
            assert!(pool.submit(job, jobs.len()).is_ok());
        }
        let slabs: usize = (0..jobs.len())
            .map(|_| done_rx.recv_timeout(PATIENCE).expect("every job finishes"))
            .sum();
        assert_eq!(slabs, 12 + 12 + 8);
        let high = high.load(Ordering::SeqCst);
        assert!((1..=N).contains(&high), "{high} bodies ran at once");
        pool.drain();
        assert_eq!(
            pool.sched_stats().slabs_per_worker.iter().sum::<usize>(),
            slabs
        );
    }

    /// Submission counts jobs only, refuses past the cap, and a draining
    /// pool refuses everything.
    #[test]
    fn submit_bounds_waiting_jobs_and_refuses_while_draining() {
        let pool = Pool::serve(Closures, 1);
        let (hold_tx, hold_rx) = channel::<()>();
        let (took_tx, took_rx) = channel::<()>();
        let hold: Closure = Box::new(move |_: &mut Seat<'_>| {
            took_tx.send(()).expect("test lives");
            hold_rx.recv_timeout(PATIENCE).expect("released");
        });
        assert!(pool.submit(hold, 1).is_ok());
        took_rx
            .recv_timeout(PATIENCE)
            .expect("the worker took the job");
        assert_eq!(pool.queued_jobs(), 0, "a started job is not waiting");
        assert!(pool.submit(Box::new(|_: &mut Seat<'_>| {}), 1).is_ok());
        assert_eq!(pool.queued_jobs(), 1);
        assert!(pool.submit(Box::new(|_: &mut Seat<'_>| {}), 1).is_err());
        hold_tx.send(()).expect("job waits");
        pool.drain();
        assert_eq!(pool.queued_jobs(), 0, "drain finishes what was queued");
        assert!(pool.submit(Box::new(|_: &mut Seat<'_>| {}), 1).is_err());
    }

    #[test]
    fn slab_len_fills_members_then_caps() {
        assert_eq!(slab_len(0, 512, 3), 1);
        assert_eq!(slab_len(2, 512, 3), 1, "fewer items than members");
        assert_eq!(slab_len(100, 512, 3), 34);
        assert_eq!(slab_len(3 * 512, 512, 3), 512);
        assert_eq!(slab_len(3 * 512 + 1, 512, 3), 512);
        assert_eq!(slab_len(1100, 512, 3), 367);
        assert_eq!(slab_len(7, 0, 3), 1, "a zero cap is one item per slab");
        // one member: a single slab whenever the items fit under the cap
        for items in [1, 32, 511, 512] {
            assert_eq!(slab_len(items, 512, 1), items);
        }
        assert_eq!(slab_len(513, 512, 1), 512);
        // a seat cuts for the pool's size unless spread narrower
        let mut pool = Pool::new(2);
        let mut seat = pool.seat();
        assert_eq!(seat.slab_len(600, 512), 300);
        seat.spread(1);
        assert_eq!(seat.slab_len(600, 512), 512);
        seat.spread(5);
        assert_eq!(seat.slab_len(600, 512), 300, "clamped to the pool");
    }

    /// A seat collects the stage times of its map calls' slabs, whichever
    /// member ran them, and a take resets them.
    #[test]
    fn take_times_sums_members_and_resets() {
        let mut pool = Pool::new(2);
        let mut seat = pool.seat();
        seat.map(&MemOpts::default(), 2, |worker, _| {
            worker.times.add(Stage::Misc, Duration::from_millis(5));
        });
        let times = seat.take_times();
        assert_eq!(
            times.totals[Stage::Misc as usize],
            Duration::from_millis(10)
        );
        let again = seat.take_times();
        assert_eq!(again.totals[Stage::Misc as usize], Duration::ZERO);
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
