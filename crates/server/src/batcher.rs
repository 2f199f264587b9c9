//! The cross-connection micro-batcher.
//!
//! Every connection thread turns a parsed request into a
//! [`Submission`] and offers it to one shared bounded queue. Alignment
//! worker threads pop the *oldest* submission and then greedily absorb
//! every other queued single-end submission with the **same options
//! fingerprint** until the slab's read budget is reached — so under
//! many-small-client traffic one `align_batch` slab carries reads from
//! many sockets, and the seeding/BSW superstages run as full as they
//! would under one fat file. This is safe because per-read SAM output
//! is a pure function of `(read, opts)` — invariant to slab-mates — the
//! invariant the whole repo pins (batch size, thread count);
//! the daemon's integration tests pin it again end to end.
//!
//! Backpressure is explicit: [`Batcher::try_submit`] never blocks —
//! when the queue is at capacity the caller gets the submission back
//! and answers its client with a RETRY frame (suggested backoff
//! attached). Nothing is half-admitted: a request either queues whole
//! or not at all. Paired-end submissions ride the same queue but are
//! never coalesced across requests — each PE request is its own
//! insert-size estimation window sequence, which keeps its bytes
//! independent of other traffic.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use mem2_core::pipeline::{align_to_records, PipelineContext, PreparedRead};
use mem2_core::profile::STAGE_NAMES;
use mem2_core::{SamRecord, StageTimes, Team};
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
    pub opts: mem2_core::MemOpts,
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

struct Shared {
    queue: Mutex<VecDeque<Submission>>,
    /// Signals workers that the queue gained work (or drain started).
    work: Condvar,
    capacity: usize,
    /// Reads per coalesced slab (the `align_batch` feed target).
    slab_reads: usize,
    draining: AtomicBool,
    pub counters: Counters,
    /// Per-stage CPU time across all workers (STATS latencies).
    times: Mutex<StageTimes>,
    /// Slabs whose service time reaches this are logged with their
    /// per-stage breakdown; 0 disables the slow-slab log.
    slow_us: u64,
}

/// The shared admission queue plus its worker pool.
pub struct Batcher {
    shared: Arc<Shared>,
    slot: Arc<IndexSlot>,
    /// Emptied by the first [`Batcher::drain`].
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Batcher {
    /// Start `n_workers` alignment workers over the hot-swappable index
    /// `slot` (each slab pins the slot's current epoch before it runs).
    /// `capacity` bounds the admission queue in requests; `slab_reads`
    /// is the coalescing budget per alignment slab; slabs serviced in
    /// `slow_us` µs or more are logged with their per-stage breakdown
    /// (0 disables).
    pub fn start(
        slot: Arc<IndexSlot>,
        n_workers: usize,
        capacity: usize,
        slab_reads: usize,
        slow_us: u64,
    ) -> Batcher {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            work: Condvar::new(),
            capacity: capacity.max(1),
            slab_reads: slab_reads.max(1),
            draining: AtomicBool::new(false),
            counters: Counters::default(),
            times: Mutex::new(StageTimes::default()),
            slow_us,
        });
        let workers = (0..n_workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                let slot = Arc::clone(&slot);
                std::thread::spawn(move || worker_loop(&shared, &slot))
            })
            .collect();
        Batcher {
            shared,
            slot,
            workers: Mutex::new(workers),
        }
    }

    /// The hot-swappable index slot the workers align against.
    pub fn slot(&self) -> &IndexSlot {
        &self.slot
    }

    /// Offer a submission without blocking. `Err` hands it back: the
    /// queue is full (or the daemon is draining) and the client should
    /// be told to retry — the request was not admitted.
    #[allow(clippy::result_large_err)] // Err returns the whole submission on rejection by design
    pub fn try_submit(&self, sub: Submission) -> Result<(), Submission> {
        if self.shared.draining.load(Ordering::Acquire) {
            self.shared
                .counters
                .rejected
                .fetch_add(1, Ordering::Relaxed);
            return Err(sub);
        }
        let mut q = self.shared.queue.lock().expect("queue poisoned");
        if q.len() >= self.shared.capacity {
            drop(q);
            self.shared
                .counters
                .rejected
                .fetch_add(1, Ordering::Relaxed);
            return Err(sub);
        }
        q.push_back(sub);
        drop(q);
        self.shared
            .counters
            .admitted
            .fetch_add(1, Ordering::Relaxed);
        self.shared.work.notify_one();
        Ok(())
    }

    /// Current queue depth (requests waiting, not yet taken by a
    /// worker).
    pub fn queue_depth(&self) -> usize {
        self.shared.queue.lock().expect("queue poisoned").len()
    }

    /// Queue capacity in requests.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Aggregate counters (live; shared with workers).
    pub fn counters(&self) -> &Counters {
        &self.shared.counters
    }

    /// Snapshot of per-stage CPU time accumulated across workers. The
    /// clone aliases the live histograms (Arc), so percentile reads see
    /// ongoing traffic; totals are copied at call time.
    pub fn stage_times(&self) -> StageTimes {
        self.shared.times.lock().expect("times poisoned").clone()
    }

    /// Drain: refuse new submissions, finish everything queued, then
    /// join the worker pool. Idempotent.
    pub fn drain(&self) {
        self.shared.draining.store(true, Ordering::Release);
        self.shared.work.notify_all();
        let workers = std::mem::take(&mut *self.workers.lock().expect("workers poisoned"));
        for w in workers {
            let _ = w.join();
        }
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.drain();
    }
}

/// One alignment worker: pop the oldest submission, coalesce compatible
/// queued single-end submissions into its slab, pin the current index
/// epoch, align, and ship each request's slice of the records back to
/// its connection.
fn worker_loop(shared: &Shared, slot: &IndexSlot) {
    // One single-member team per options fingerprint: the BSW engines
    // bake in scoring, so each distinct override set gets (and reuses)
    // its own worker arena — the "allocate once, reuse across batches"
    // design survives per-request options. Teams depend only on options,
    // not on the index, so they also survive hot-swaps.
    let mut teams: HashMap<String, Team> = HashMap::new();
    loop {
        let group = {
            let mut q = shared.queue.lock().expect("queue poisoned");
            loop {
                if let Some(first) = q.pop_front() {
                    break take_group(&mut q, first, shared.slab_reads);
                }
                if shared.draining.load(Ordering::Acquire) {
                    return;
                }
                q = shared.work.wait(q).expect("queue poisoned");
            }
        };
        // Pin one index generation for the whole slab: every read in it
        // (and therefore every request) is answered by exactly one
        // epoch, even if a RELOAD lands mid-flight.
        let pinned = slot.current();
        align_group(shared, &pinned, &mut teams, group);
    }
}

/// Pop every queued submission that may share `first`'s slab: single-end
/// only, same fingerprint, until the slab's read budget fills. The rest
/// of the queue keeps its order.
fn take_group(
    q: &mut VecDeque<Submission>,
    first: Submission,
    slab_reads: usize,
) -> Vec<Submission> {
    let mut group = vec![first];
    if matches!(group[0].payload, Payload::Paired(_)) {
        return group; // PE requests never coalesce
    }
    let mut budget = slab_reads.saturating_sub(group[0].payload.n_reads());
    let mut i = 0;
    while i < q.len() && budget > 0 {
        let compatible = matches!(q[i].payload, Payload::Single(_))
            && q[i].fingerprint == group[0].fingerprint
            && q[i].payload.n_reads() <= budget;
        if compatible {
            let sub = q.remove(i).expect("index checked");
            budget -= sub.payload.n_reads();
            group.push(sub);
        } else {
            i += 1;
        }
    }
    group
}

/// What one slab will compute, split from its reply routing so a panic
/// mid-alignment still leaves the reply channels reachable.
enum Work {
    /// One slab: all requests' reads concatenated in admission order.
    Single(Vec<PreparedRead>),
    /// One PE request's pairs plus its pinned insert distribution.
    Paired(Vec<ReadPair>, Option<PeStats>),
}

/// Align one coalesced group and distribute replies. Alignment runs
/// under `catch_unwind`: a panic answers every request in the slab with
/// an error reply (relayed as ERR) and drops the fingerprint's team —
/// other slabs, connections, and the daemon itself are unaffected.
fn align_group(
    shared: &Shared,
    pinned: &PinnedIndex,
    teams: &mut HashMap<String, Team>,
    group: Vec<Submission>,
) {
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
        shared.counters.queue_wait_hist.record(waited_us);
    }
    let fingerprint = group[0].fingerprint.clone();
    // Take the team *out* of the map: if the slab panics its arena may
    // hold torn state, so it must not be reused — it is reinserted only
    // on the success path.
    let mut team = teams
        .remove(&fingerprint)
        .unwrap_or_else(|| Team::new(&opts, 1));

    // Peel reply routing off the submissions before the unwind
    // boundary; `routes[i]` is (reply channel, reads) per request.
    let mut routes: Vec<(SyncSender<Reply>, usize)> = Vec::with_capacity(group.len());
    let work = match group[0].payload {
        Payload::Single(_) => {
            let mut reads: Vec<PreparedRead> = Vec::with_capacity(n_reads as usize);
            for sub in group {
                let Payload::Single(r) = sub.payload else {
                    unreachable!("take_group keeps SE groups pure");
                };
                routes.push((sub.reply, r.len()));
                reads.extend(r);
            }
            Work::Single(reads)
        }
        Payload::Paired(_) => {
            let sub = group.into_iter().next().expect("group is non-empty");
            let Payload::Paired(pairs) = sub.payload else {
                unreachable!("matched above");
            };
            routes.push((sub.reply, 2 * pairs.len()));
            Work::Paired(pairs, sub.pes_override)
        }
    };

    // AssertUnwindSafe: on panic the team is dropped and the
    // per-request outputs discarded, so no torn state escapes the slab.
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if let Some(ms) = faultsim::fire(faultsim::SLAB_DELAY_MS) {
            std::thread::sleep(Duration::from_millis(ms));
        }
        if faultsim::fire(faultsim::SLAB_PANIC).is_some() {
            panic!("injected slab panic (faultsim)");
        }
        match work {
            Work::Single(reads) => {
                let per_read = align_to_records(&ctx, team.lead(), &reads);
                let mut it = per_read.into_iter();
                routes
                    .iter()
                    .map(|(_, n)| it.by_ref().take(*n).flatten().collect())
                    .collect::<Vec<Vec<SamRecord>>>()
            }
            // windowed like `mem2 mem -p` on the same stream — the
            // request is its own pestat scope
            Work::Paired(pairs, pes) => vec![align_pairs_windowed(&ctx, &mut team, pairs, pes)],
        }
    }));

    let per_sub = match outcome {
        Ok(per_sub) => per_sub,
        Err(payload) => {
            let msg = panic_message(payload.as_ref());
            shared.counters.slab_panics.fetch_add(1, Ordering::Relaxed);
            mem2_obs::log::error(
                "serve",
                "alignment slab panicked; requests answered with ERR, worker team dropped",
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
            return; // team dropped here — never reinserted
        }
    };

    for ((reply, n), records) in routes.into_iter().zip(per_sub) {
        shared
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

    shared.counters.reads.fetch_add(n_reads, Ordering::Relaxed);
    shared.counters.slabs.fetch_add(1, Ordering::Relaxed);
    shared
        .counters
        .slab_submissions
        .fetch_add(n_subs, Ordering::Relaxed);
    let service_us = t_service.elapsed().as_micros() as u64;
    shared.counters.service_hist.record(service_us);
    // the lead's times were reset at the previous slab boundary, so the
    // take is exactly this slab's per-stage breakdown
    let slab_times = std::mem::take(&mut team.lead().times);
    if shared.slow_us > 0 && service_us >= shared.slow_us {
        log_slow_slab(&fingerprint, n_subs, n_reads, service_us, &slab_times);
    }
    shared
        .times
        .lock()
        .expect("times poisoned")
        .merge(&slab_times);
    teams.insert(fingerprint, team);
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
