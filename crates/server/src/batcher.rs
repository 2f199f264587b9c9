//! The cross-connection micro-batcher.
//!
//! Every connection thread turns a parsed request into a
//! [`Submission`] and offers it to the daemon's [`Pool`] — the `N`
//! persistent workers `mem2 mem` runs on, whose one FIFO is the
//! admission queue. A worker pops the *oldest* submission and then
//! greedily absorbs every other queued single-end submission with the
//! **same options fingerprint** until the slab's read budget is reached
//! — so under many-small-client traffic one `align_batch` slab carries
//! reads from many sockets, and the seeding/BSW superstages run as full
//! as they would under one fat file. This is safe because per-read SAM
//! output is a pure function of `(read, opts)` — invariant to slab-mates
//! — the invariant the whole repo pins (batch size, thread count); the
//! daemon's integration tests pin it again end to end.
//!
//! The worker that popped a group aligns it through [`Seat::map`]. A
//! group of `n` reads is cut by [`mem2_core::threads::slab_len`] over
//! `min(N, ⌈n ÷ batch_reads⌉)` members, so a group within the budget is
//! one slab on that worker, and a larger one (a single large request)
//! becomes a map entry at the back of the FIFO whose slabs idle workers
//! claim one at a time, round-robin with the requests queued behind it.
//! So one large request on an idle daemon uses every worker, two large
//! requests share them, a small request waits behind at most one slab
//! per busy worker, and never more than `N` threads align.
//!
//! Backpressure is explicit: [`Batcher::try_submit`] never blocks —
//! when the queue holds its capacity of requests not yet started, the
//! caller gets the submission back and answers its client with a RETRY
//! frame (suggested backoff attached). Nothing is half-admitted: a
//! request either queues whole or not at all. Paired-end submissions
//! ride the same queue but are never coalesced across requests — each
//! PE request is its own insert-size estimation window sequence, which
//! keeps its bytes independent of other traffic; its windows' two
//! phases run through `map` from the worker that popped it, with the
//! estimate between them on that worker.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mem2_core::pipeline::{align_to_records, PipelineContext, PreparedRead};
use mem2_core::profile::STAGE_NAMES;
use mem2_core::threads::{split_slabs, take_slab};
use mem2_core::{Jobs, MemOpts, Pool, SamRecord, SchedStats, Seat, StageTimes};
use mem2_obs::Hist;
use mem2_pairing::{align_pairs_windowed, PeStats};
use mem2_seqio::ReadPair;

use crate::faultsim;
use crate::swap::{IndexSlot, PinnedIndex};

/// A request's payload, already parsed out of its FASTQ bytes.
pub enum Payload {
    /// Single-end reads — eligible for cross-connection coalescing.
    Single(Vec<PreparedRead>),
    /// Interleaved pairs — aligned alone (per-request pestat windows).
    Paired(Vec<ReadPair>),
}

impl Payload {
    /// Reads carried (pairs count both ends).
    pub fn n_reads(&self) -> usize {
        match self {
            Payload::Single(reads) => reads.len(),
            Payload::Paired(pairs) => 2 * pairs.len(),
        }
    }
}

/// The aligned reply for one submission.
pub struct Reply {
    /// SAM records for the whole request, in read order (empty when
    /// `error` is set).
    pub records: Vec<SamRecord>,
    /// Reads aligned.
    pub reads: usize,
    /// Index epoch that served this request (see [`crate::swap`]).
    pub epoch: u64,
    /// Set when the slab aligning this request panicked: the panic
    /// message, to be relayed as an ERR frame. The daemon itself
    /// survives — isolation is per-slab.
    pub error: Option<String>,
}

/// One admitted request, waiting in the shared queue.
pub struct Submission {
    /// Canonical option-override fingerprint ("" = server defaults);
    /// only equal fingerprints may share a slab.
    pub fingerprint: String,
    /// Effective options (base + overrides).
    pub opts: MemOpts,
    /// Pinned insert distribution for PE requests (server `-I`), if any.
    pub pes_override: Option<PeStats>,
    /// The reads.
    pub payload: Payload,
    /// Where the aligned records go (the connection thread's channel).
    pub reply: SyncSender<Reply>,
    /// Admission timestamp, for queue-wait accounting.
    pub enqueued: Instant,
}

/// Aggregate daemon counters, updated by workers and connections and
/// snapshotted by the STATS verb.
#[derive(Default)]
pub struct Counters {
    /// Requests admitted to the queue.
    pub admitted: AtomicU64,
    /// Requests rejected with RETRY (queue full).
    pub rejected: AtomicU64,
    /// Reads aligned (pairs count both ends).
    pub reads: AtomicU64,
    /// SAM records produced.
    pub records: AtomicU64,
    /// Alignment slabs executed.
    pub slabs: AtomicU64,
    /// Submissions coalesced into those slabs (occupancy numerator).
    pub slab_submissions: AtomicU64,
    /// Connections currently open.
    pub active_connections: AtomicUsize,
    /// Alignment slabs that panicked (each answers its requests with
    /// ERR; the daemon survives).
    pub slab_panics: AtomicU64,
    /// Requests dropped because their `--request-timeout` deadline
    /// expired before a reply arrived.
    pub deadlines_expired: AtomicU64,
    /// Per-submission queue-wait latency distribution (µs).
    pub queue_wait_hist: Hist,
    /// Per-slab service latency distribution (µs).
    pub service_hist: Hist,
}

/// The daemon's side of its pool: what a worker does with the
/// submissions it pops.
struct Daemon {
    slot: Arc<IndexSlot>,
    /// Reads per coalesced slab (the `align_batch` feed target), and one
    /// member's share when a larger request is spread.
    slab_reads: usize,
    counters: Counters,
    /// Per-stage CPU time across all workers (STATS latencies).
    times: Mutex<StageTimes>,
    /// Groups whose service time reaches this are logged with their
    /// per-stage breakdown; 0 disables the slow-slab log.
    slow_us: u64,
}

impl Jobs for Daemon {
    type Job = Submission;

    /// Single-end only, same fingerprint, until the slab's read budget
    /// fills.
    fn joins(&self, group: &[Submission], next: &Submission) -> bool {
        let taken: usize = group.iter().map(|s| s.payload.n_reads()).sum();
        matches!(group[0].payload, Payload::Single(_))
            && matches!(next.payload, Payload::Single(_))
            && next.fingerprint == group[0].fingerprint
            && next.payload.n_reads() <= self.slab_reads.saturating_sub(taken)
    }

    fn run(&self, seat: &mut Seat<'_>, group: Vec<Submission>) {
        // Pin one index generation for the whole group: every read in it
        // (and therefore every request) is answered by exactly one
        // epoch, even if a RELOAD lands mid-flight.
        let pinned = self.slot.current();
        align_group(self, &pinned, seat, group);
    }
}

/// The admission queue plus its worker pool.
pub struct Batcher {
    pool: Pool<Daemon>,
    capacity: usize,
}

impl Batcher {
    /// Start `n_workers` alignment workers over the hot-swappable index
    /// `slot` (each group pins the slot's current epoch before it runs).
    /// `capacity` bounds the admission queue in requests; `slab_reads`
    /// is the coalescing budget per alignment slab and one member's
    /// share of a larger request; groups serviced in `slow_us` µs or
    /// more are logged with their per-stage breakdown (0 disables).
    pub fn start(
        slot: Arc<IndexSlot>,
        n_workers: usize,
        capacity: usize,
        slab_reads: usize,
        slow_us: u64,
    ) -> Batcher {
        let daemon = Daemon {
            slot,
            slab_reads: slab_reads.max(1),
            counters: Counters::default(),
            times: Mutex::new(StageTimes::default()),
            slow_us,
        };
        Batcher {
            pool: Pool::serve(daemon, n_workers),
            capacity: capacity.max(1),
        }
    }

    /// The hot-swappable index slot the workers align against.
    pub fn slot(&self) -> &IndexSlot {
        &self.pool.jobs().slot
    }

    /// Offer a submission without blocking. `Err` hands it back: the
    /// queue is full (or the daemon is draining) and the client should
    /// be told to retry — the request was not admitted.
    #[allow(clippy::result_large_err)] // Err returns the whole submission on rejection by design
    pub fn try_submit(&self, sub: Submission) -> Result<(), Submission> {
        let counters = self.counters();
        match self.pool.submit(sub, self.capacity) {
            Ok(()) => {
                counters.admitted.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            Err(sub) => {
                counters.rejected.fetch_add(1, Ordering::Relaxed);
                Err(sub)
            }
        }
    }

    /// Current queue depth (requests waiting, not yet taken by a
    /// worker).
    pub fn queue_depth(&self) -> usize {
        self.pool.queued_jobs()
    }

    /// Aggregate counters (live; shared with workers).
    pub fn counters(&self) -> &Counters {
        &self.pool.jobs().counters
    }

    /// Snapshot of per-stage CPU time accumulated across workers. The
    /// clone aliases the live histograms (Arc), so percentile reads see
    /// ongoing traffic; totals are copied at call time.
    pub fn stage_times(&self) -> StageTimes {
        self.pool
            .jobs()
            .times
            .lock()
            .expect("times poisoned")
            .clone()
    }

    /// Each worker's busy time and slab count so far, over `uptime` as
    /// the wall (so `worker_busy_share` is the share of the daemon's
    /// life its workers spent aligning).
    pub fn scheduler(&self, uptime: Duration) -> SchedStats {
        SchedStats {
            align_wall: uptime,
            ..self.pool.sched_stats()
        }
    }

    /// Drain: refuse new submissions, finish everything queued, then
    /// join the worker pool. Idempotent.
    pub fn drain(&self) {
        self.pool.drain();
    }
}

/// Align one coalesced group on the worker that popped it and
/// distribute replies. Alignment runs under `catch_unwind`: a panic in
/// any of its slabs answers every request in the group with an error
/// reply carrying the panic's message (relayed as ERR); the worker that
/// ran the panicking slab has already dropped its arena for the group's
/// options. Other groups, connections, and the daemon itself are
/// unaffected.
fn align_group(daemon: &Daemon, pinned: &PinnedIndex, seat: &mut Seat<'_>, group: Vec<Submission>) {
    let t_service = Instant::now();
    let aligner = &*pinned.aligner;
    let epoch = pinned.epoch;
    let opts = group[0].opts;
    let ctx = PipelineContext {
        opts: &opts,
        index: &aligner.index,
        reference: &aligner.reference,
    };
    let n_subs = group.len() as u64;
    let mut n_reads = 0u64;
    for sub in &group {
        n_reads += sub.payload.n_reads() as u64;
        let waited_us = sub.enqueued.elapsed().as_micros() as u64;
        daemon.counters.queue_wait_hist.record(waited_us);
    }
    let fingerprint = group[0].fingerprint.clone();
    // min(N, ⌈n ÷ batch_reads⌉) members: a group within the budget is
    // never split
    seat.spread((n_reads as usize).div_ceil(daemon.slab_reads));

    // Peel reply routing off the submissions before the unwind
    // boundary; `routes[i]` is (reply channel, reads) per request, and
    // an SE group's reads are concatenated in admission order.
    let mut routes: Vec<(SyncSender<Reply>, usize)> = Vec::with_capacity(group.len());
    let mut subs = group.into_iter();
    let first = subs.next().expect("a group is non-empty");
    let pes_override = first.pes_override;
    routes.push((first.reply, first.payload.n_reads()));
    let mut payload = first.payload;
    for sub in subs {
        routes.push((sub.reply, sub.payload.n_reads()));
        match (&mut payload, sub.payload) {
            (Payload::Single(reads), Payload::Single(more)) => reads.extend(more),
            _ => unreachable!("only single-end requests coalesce"),
        }
    }

    // AssertUnwindSafe: on panic the per-request outputs are discarded
    // and the panicking slab's arena is already dropped, so no torn
    // state escapes the group.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if let Some(ms) = faultsim::fire(faultsim::SLAB_DELAY_MS) {
            std::thread::sleep(Duration::from_millis(ms));
        }
        // one shot per group; a single-end group panics in its last
        // slab, on whichever worker claims it
        let poisoned = faultsim::fire(faultsim::SLAB_PANIC).is_some();
        let inject_panic = |hit: bool| {
            if hit {
                panic!("injected slab panic (faultsim)");
            }
        };
        match payload {
            Payload::Single(reads) => {
                let slab_len = seat.slab_len(reads.len(), daemon.slab_reads);
                let slabs = split_slabs(reads, slab_len);
                let per_slab = seat.map(&opts, slabs.len(), |worker, k| {
                    inject_panic(poisoned && k + 1 == slabs.len());
                    align_to_records(&ctx, worker, &take_slab(&slabs, k))
                });
                let mut it = per_slab.into_iter().flatten();
                routes
                    .iter()
                    .map(|(_, n)| it.by_ref().take(*n).flatten().collect())
                    .collect::<Vec<Vec<SamRecord>>>()
            }
            // windowed like `mem2 mem -p` on the same stream — the
            // request is its own pestat scope
            Payload::Paired(pairs) => {
                inject_panic(poisoned);
                vec![align_pairs_windowed(&ctx, seat, pairs, pes_override)]
            }
        }
    }));
    // this worker runs one group at a time, so the take is exactly this
    // group's per-stage breakdown, wherever its slabs ran
    let group_times = seat.take_times();

    let per_sub = match outcome {
        Ok(per_sub) => per_sub,
        Err(payload) => {
            let msg = panic_message(payload.as_ref());
            daemon.counters.slab_panics.fetch_add(1, Ordering::Relaxed);
            mem2_obs::log::error(
                "serve",
                "alignment slab panicked; requests answered with ERR, worker arena dropped",
                &[("panic", &msg), ("requests", &n_subs), ("reads", &n_reads)],
            );
            for (reply, n) in routes {
                let _ = reply.send(Reply {
                    records: Vec::new(),
                    reads: n,
                    epoch,
                    error: Some(msg.clone()),
                });
            }
            return;
        }
    };

    for ((reply, n), records) in routes.into_iter().zip(per_sub) {
        daemon
            .counters
            .records
            .fetch_add(records.len() as u64, Ordering::Relaxed);
        // a dead receiver just means the client hung up (or its
        // deadline expired) — the work is discarded, the daemon
        // carries on
        let _ = reply.send(Reply {
            records,
            reads: n,
            epoch,
            error: None,
        });
    }

    daemon.counters.reads.fetch_add(n_reads, Ordering::Relaxed);
    daemon.counters.slabs.fetch_add(1, Ordering::Relaxed);
    daemon
        .counters
        .slab_submissions
        .fetch_add(n_subs, Ordering::Relaxed);
    let service_us = t_service.elapsed().as_micros() as u64;
    daemon.counters.service_hist.record(service_us);
    if daemon.slow_us > 0 && service_us >= daemon.slow_us {
        log_slow_slab(&fingerprint, n_subs, n_reads, service_us, &group_times);
    }
    daemon
        .times
        .lock()
        .expect("times poisoned")
        .merge(&group_times);
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".to_string()
    }
}

/// Emit the slow-request log line: one WARN with the slab's fingerprint,
/// occupancy, and per-stage millisecond breakdown, so an operator can
/// attribute an outlier to a stage without re-running with profiling.
fn log_slow_slab(
    fingerprint: &str,
    n_subs: u64,
    n_reads: u64,
    service_us: u64,
    times: &StageTimes,
) {
    let service_ms = format!("{:.3}", service_us as f64 / 1e3);
    let stage_ms: Vec<(String, f64)> = STAGE_NAMES
        .iter()
        .zip(&times.totals)
        .map(|(name, d)| (format!("{}_ms", name.to_lowercase()), d.as_secs_f64() * 1e3))
        .collect();
    let fp = if fingerprint.is_empty() {
        "default"
    } else {
        fingerprint
    };
    let mut fields: Vec<(&str, &dyn std::fmt::Display)> = vec![
        ("fingerprint", &fp),
        ("requests", &n_subs),
        ("reads", &n_reads),
        ("service_ms", &service_ms),
    ];
    let rendered: Vec<String> = stage_ms.iter().map(|(_, v)| format!("{v:.3}")).collect();
    for ((name, _), val) in stage_ms.iter().zip(&rendered) {
        fields.push((name.as_str(), val));
    }
    mem2_obs::log::warn("serve", "slow slab", &fields);
}
