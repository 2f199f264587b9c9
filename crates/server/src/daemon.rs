//! The resident daemon: accept loop, per-connection protocol driver,
//! STATS snapshots, graceful drain.
//!
//! Thread model: one acceptor (polling, so it observes shutdown), one
//! thread per connection (the protocol is strictly turn-based, so a
//! connection never needs a reader/writer split), and the [`Batcher`]'s
//! [`mem2_core::Pool`] of `-t N` persistent alignment workers shared by
//! everyone: a worker pops one coalesced group at a time and spreads a
//! group larger than the coalescing budget over the pool, slab by slab,
//! beside the other workers' requests — never more than `N` threads
//! align. A connection thread does **no alignment work** — it parses
//! FASTQ into a [`Submission`], offers it to the pool's queue, and
//! renders the reply's SAM frames itself; a daemon with 32 idle
//! connections costs 32 parked threads, not 32 worker arenas.
//!
//! Drain (SIGTERM, ctrl-C, or a SHUTDOWN frame): stop accepting, let
//! every connection finish its in-flight turn (idle connections are
//! closed at their next tick), finish everything already admitted to
//! the queue, then exit. New requests arriving mid-drain are refused
//! with an ERR frame — not RETRY, because this server will not be back.
//!
//! Fault tolerance (PR 9): the serving index lives in a hot-swappable
//! [`IndexSlot`] — a RELOAD frame (or SIGHUP via
//! [`ServerHandle::reload`]) loads and CRC-verifies a new bundle, then
//! atomically bumps the epoch while in-flight slabs finish on the old
//! one. Requests carry an optional hard deadline
//! ([`ServeConfig::request_timeout`]), mid-frame stalls are bounded by
//! [`ServeConfig::conn_stall`] in both directions, and RETRY backoff is
//! decorrelated-jittered per connection so synchronized clients spread
//! out.

use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{sync_channel, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime};

use mem2_core::pipeline::PreparedRead;
use mem2_core::profile::percentile_fields_us;
use mem2_core::{Aligner, MemOpts};
use mem2_obs::log as olog;
use mem2_obs::{MetricsServer, RateLimited, Registry};
use mem2_pairing::{pairs_from_interleaved, PeStats};
use mem2_seqio::{
    decode_frame_header, encode_frame_header, FastqStream, Frame, FrameWriter, FRAME_HEADER_LEN,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::batcher::{Batcher, Payload, Submission};
use crate::endpoint::{Conn, Endpoint, Listener};
use crate::faultsim;
use crate::metrics::{render_daemon_metrics, render_process_metrics};
use crate::proto::{self, OptsOverride, RequestMode, CLIENT_MAGIC};
use crate::swap::IndexSlot;

/// Daemon configuration (execution-shape knobs; per-request scoring
/// options arrive over the wire instead). The coalescing budget is not
/// one of them: a cross-connection slab holds up to the served
/// aligner's `batch_reads` reads, the slab size `mem2 mem` uses.
pub struct ServeConfig {
    /// Where to listen.
    pub endpoint: Endpoint,
    /// Alignment worker threads: the pool every request runs on. A
    /// request of `n` reads is cut into slabs for `min(threads, ⌈n ÷
    /// batch_reads⌉)` of them, so one within `batch_reads` is one slab on
    /// one worker, and a larger one is shared by every worker free to
    /// claim its slabs.
    pub threads: usize,
    /// Admission queue capacity, in requests. Small bounds mean early,
    /// honest backpressure instead of unbounded memory.
    pub queue_cap: usize,
    /// Suggested client backoff carried by RETRY frames, milliseconds.
    pub retry_ms: u64,
    /// Pinned insert-size distribution for PE requests (the daemon
    /// equivalent of `mem2 mem -I`).
    pub pes_override: Option<PeStats>,
    /// Bind an HTTP `/metrics` exposition endpoint here (e.g.
    /// `127.0.0.1:9100`; port 0 for ephemeral). `None` disables it.
    pub metrics_addr: Option<String>,
    /// Slabs serviced in at least this many milliseconds are logged
    /// (WARN) with their per-stage breakdown. 0 disables.
    pub slow_ms: u64,
    /// Hard per-request deadline: a request whose reply has not arrived
    /// within this window answers ERR and frees its connection slot.
    /// `None` waits indefinitely (drain still completes admitted work).
    pub request_timeout: Option<Duration>,
    /// Mid-frame stall budget, both directions: a peer that starts a
    /// frame must finish it (and keep draining our writes) within this
    /// window or the connection is dropped.
    pub conn_stall: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            #[cfg(unix)]
            endpoint: Endpoint::Unix(std::env::temp_dir().join("mem2.sock")),
            #[cfg(not(unix))]
            endpoint: Endpoint::Tcp("127.0.0.1:0".into()),
            threads: 1,
            queue_cap: 64,
            retry_ms: 50,
            pes_override: None,
            metrics_addr: None,
            slow_ms: 0,
            request_timeout: None,
            conn_stall: Duration::from_secs(30),
        }
    }
}

/// Idle tick: how often blocked reads / the acceptor re-check the
/// drain flag.
const POLL_TICK: Duration = Duration::from_millis(25);

/// SAM payload bytes per response frame (a full response streams as
/// many frames).
const SAM_CHUNK: usize = 256 << 10;

/// A running daemon: handle for shutdown, hot-swap, and join.
pub struct ServerHandle {
    endpoint: Endpoint,
    shutdown: Arc<AtomicBool>,
    ctx: Arc<ConnCtx>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    metrics: Option<MetricsServer>,
}

impl ServerHandle {
    /// The concrete bound endpoint (TCP port 0 already resolved).
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Hot-swap the serving index to the bundle at `path` (what SIGHUP
    /// does in the CLI): load + eagerly CRC-verify off the serving
    /// path, then atomically switch the slot. Returns the new epoch;
    /// on any failure the old index stays in service untouched.
    pub fn reload(&self, path: &str) -> Result<u64, String> {
        reload_index(&self.ctx, path)
    }

    /// The index epoch currently answering new requests.
    pub fn epoch(&self) -> u64 {
        self.ctx.slot.epoch()
    }

    /// The bound `/metrics` address when `metrics_addr` was configured
    /// (port 0 already resolved).
    pub fn metrics_addr(&self) -> Option<std::net::SocketAddr> {
        self.metrics.as_ref().map(|m| m.addr())
    }

    /// Request a graceful drain (what SIGTERM does).
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::Release);
    }

    /// True once a drain has been requested — by this handle, by
    /// SIGTERM handling in the CLI, or by a client's SHUTDOWN frame.
    pub fn draining(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Block until the daemon has fully drained and exited.
    pub fn join(mut self) {
        if let Some(t) = self.acceptor.take() {
            let _ = t.join();
        }
        if let Some(m) = self.metrics.take() {
            // shares the daemon's shutdown flag, so the drain that ended
            // the acceptor also ends the metrics accept loop
            m.join();
        }
    }
}

/// Start serving `aligner` on `config.endpoint`. Returns once the
/// socket is bound and the worker pool is up; the accept loop runs on
/// background threads until [`ServerHandle::shutdown`] (or a SHUTDOWN
/// frame / SIGTERM via the caller polling [`crate::signal`]).
pub fn serve(aligner: Aligner, config: ServeConfig) -> io::Result<ServerHandle> {
    faultsim::init_from_env();
    let listener = Listener::bind(&config.endpoint)?;
    let endpoint = listener.local_endpoint()?;
    listener.set_nonblocking(true)?;
    let base_opts = aligner.opts;
    let slot = Arc::new(IndexSlot::new(Arc::new(aligner)));
    let shutdown = Arc::new(AtomicBool::new(false));
    let batcher = Arc::new(Batcher::start(
        Arc::clone(&slot),
        config.threads,
        config.queue_cap,
        base_opts.batch_reads,
        config.slow_ms.saturating_mul(1000),
    ));
    let started = Instant::now();
    let ctx = Arc::new(ConnCtx {
        slot,
        base_opts,
        batcher: Arc::clone(&batcher),
        shutdown: Arc::clone(&shutdown),
        retry_ms: config.retry_ms,
        pes_override: config.pes_override,
        queue_cap: config.queue_cap,
        started,
        request_timeout: config.request_timeout,
        conn_stall: config.conn_stall,
    });

    // Optional Prometheus exposition endpoint, sharing the daemon's
    // shutdown flag so a drain stops it too. The registry is entirely
    // collector-driven: every scrape reads the live counters and
    // histogram snapshots, nothing is cached.
    let metrics = match &config.metrics_addr {
        Some(addr) => {
            let registry = Arc::new(Registry::new());
            let mb = Arc::clone(&batcher);
            let queue_cap = config.queue_cap;
            registry.collect_with(move |out| {
                render_daemon_metrics(out, &mb, started.elapsed(), queue_cap);
                render_process_metrics(out);
            });
            let srv = MetricsServer::start(addr, registry, Arc::clone(&shutdown))?;
            olog::info(
                "serve",
                "metrics endpoint up",
                &[("addr", &srv.addr()), ("path", &"/metrics")],
            );
            Some(srv)
        }
        None => None,
    };

    let accept_shutdown = Arc::clone(&shutdown);
    let handle_ctx = Arc::clone(&ctx);
    let acceptor = std::thread::spawn(move || {
        let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
        // A bad socket must not flood stderr: accept failures emit at
        // most one line per window, carrying the suppressed count.
        let accept_failures = RateLimited::new(Duration::from_secs(5));
        loop {
            if accept_shutdown.load(Ordering::Acquire) {
                break;
            }
            if let Some(ms) = faultsim::fire(faultsim::ACCEPT_DELAY_MS) {
                std::thread::sleep(Duration::from_millis(ms));
            }
            match listener.accept() {
                Ok(conn) => {
                    let ctx = Arc::clone(&ctx);
                    conns.push(std::thread::spawn(move || handle_connection(conn, &ctx)));
                    conns.retain(|c| !c.is_finished());
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(POLL_TICK);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    if let Some(suppressed) = accept_failures.check() {
                        olog::warn(
                            "serve",
                            "accept failed; continuing",
                            &[("error", &e), ("suppressed", &suppressed)],
                        );
                    }
                    std::thread::sleep(POLL_TICK);
                }
            }
        }
        drop(listener); // stop new traffic, unlink the unix path
        for c in conns {
            let _ = c.join(); // connections observe the flag at their next tick
        }
        batcher.drain(); // finish everything admitted, stop workers
    });

    Ok(ServerHandle {
        endpoint,
        shutdown,
        ctx: handle_ctx,
        acceptor: Some(acceptor),
        metrics,
    })
}

/// Load + verify the bundle at `path` and atomically install it as the
/// new serving epoch, whatever the daemon was started from. Any failure
/// leaves the old index in service.
fn reload_index(ctx: &ConnCtx, path: &str) -> Result<u64, String> {
    if !path.ends_with(".idx") {
        return Err(format!(
            "reload path must be an index bundle (.idx): {path}"
        ));
    }
    let t_load = Instant::now();
    // Every section is CRC-verified before the swap, so a corrupt
    // bundle is rejected here and never serves.
    let aligner = match Aligner::open(path, ctx.base_opts) {
        Ok(aligner) => aligner,
        Err(e) => {
            ctx.slot.record_failure();
            olog::warn(
                "serve",
                "reload rejected; keeping current index",
                &[("path", &path), ("error", &e)],
            );
            return Err(format!("reload rejected: {e}"));
        }
    };
    let epoch = ctx.slot.swap(Arc::new(aligner));
    let ms = format!("{:.0}", t_load.elapsed().as_secs_f64() * 1e3);
    olog::info(
        "serve",
        "index hot-swapped",
        &[("path", &path), ("epoch", &epoch), ("load_ms", &ms)],
    );
    Ok(epoch)
}

/// Shared per-connection context.
struct ConnCtx {
    /// Hot-swappable serving index (shared with the worker pool).
    slot: Arc<IndexSlot>,
    /// Server-side base options; per-request OPTS overrides apply on
    /// top of these (they survive hot-swaps unchanged).
    base_opts: MemOpts,
    batcher: Arc<Batcher>,
    shutdown: Arc<AtomicBool>,
    retry_ms: u64,
    pes_override: Option<PeStats>,
    queue_cap: usize,
    started: Instant,
    request_timeout: Option<Duration>,
    conn_stall: Duration,
}

/// RAII active-connection gauge.
struct ConnGauge<'a>(&'a ConnCtx);

impl<'a> ConnGauge<'a> {
    fn new(ctx: &'a ConnCtx) -> Self {
        ctx.batcher
            .counters()
            .active_connections
            .fetch_add(1, Ordering::Relaxed);
        ConnGauge(ctx)
    }
}

impl Drop for ConnGauge<'_> {
    fn drop(&mut self) {
        self.0
            .batcher
            .counters()
            .active_connections
            .fetch_sub(1, Ordering::Relaxed);
    }
}

/// Drive one connection through the protocol until EOF, error, or
/// drain. Errors are reported to the peer as ERR frames where the
/// socket still works; either way the connection ends quietly — a bad
/// client must never take the daemon down.
fn handle_connection(conn: Conn, ctx: &ConnCtx) {
    let _gauge = ConnGauge::new(ctx);
    let conn_id = olog::next_id();
    olog::debug("serve", "connection open", &[("conn", &conn_id)]);
    match run_connection(conn, ctx) {
        Ok(()) => olog::debug("serve", "connection closed", &[("conn", &conn_id)]),
        Err(e) => {
            // connection-level I/O failures are ordinary churn (client
            // killed mid-frame, network reset): WARN only for real
            // errors, debug volume for plain EOF
            let fields: [(&str, &dyn std::fmt::Display); 2] = [("conn", &conn_id), ("error", &e)];
            if e.kind() == io::ErrorKind::UnexpectedEof {
                olog::debug("serve", "connection ended mid-frame", &fields);
            } else {
                olog::warn("serve", "connection ended", &fields);
            }
        }
    }
}

fn run_connection(conn: Conn, ctx: &ConnCtx) -> io::Result<()> {
    conn.set_read_timeout(Some(POLL_TICK))?;
    // a peer that stops draining our writes is dropped, not waited on
    conn.set_write_timeout(Some(ctx.conn_stall))?;
    let mut reader = conn;
    let mut writer = FrameWriter::new(reader.try_clone()?);

    // -- handshake --
    let mut magic = [0u8; CLIENT_MAGIC.len()];
    if !read_exact_idle(&mut reader, &mut magic, &ctx.shutdown, ctx.conn_stall)? {
        return Ok(()); // closed or drained before speaking
    }
    if magic != CLIENT_MAGIC {
        writer.write_frame(proto::ERR, b"bad magic (expected M2SV v1)")?;
        return Ok(());
    }
    writer.write_frame(
        proto::HELLO,
        ctx.slot.current().aligner.sam_header().as_bytes(),
    )?;

    // -- request turns --
    let mut overrides = OptsOverride::default();
    let mut opts = ctx.base_opts;
    let mut data: Vec<u8> = Vec::new();
    let mut backoff = Backoff::new(ctx.retry_ms);
    loop {
        let Some(frame) = read_frame_idle(&mut reader, &ctx.shutdown, ctx.conn_stall)? else {
            return Ok(()); // clean EOF or drain while idle
        };
        match frame.ty {
            proto::OPTS => match std::str::from_utf8(&frame.payload)
                .map_err(|_| "OPTS payload is not UTF-8".to_string())
                .and_then(OptsOverride::parse)
            {
                Ok(o) => {
                    opts = o.apply(&ctx.base_opts);
                    overrides = o;
                    writer.write_frame(proto::OK, b"")?;
                }
                Err(msg) => {
                    writer.write_frame(proto::ERR, msg.as_bytes())?;
                    return Ok(());
                }
            },
            proto::DATA => {
                data.extend_from_slice(&frame.payload);
            }
            proto::END => {
                let outcome =
                    finish_request(ctx, &overrides, &opts, &mut data, &mut writer, &mut backoff);
                match outcome {
                    Ok(true) => {}
                    Ok(false) => return Ok(()), // protocol error already reported
                    Err(e) => return Err(e),
                }
            }
            proto::STATS => {
                let json = render_stats(ctx);
                writer.write_frame(proto::STATS_OK, json.as_bytes())?;
            }
            proto::RELOAD => {
                let path = match std::str::from_utf8(&frame.payload) {
                    Ok(p) => p.trim().to_string(),
                    Err(_) => {
                        writer.write_frame(proto::ERR, b"RELOAD payload is not UTF-8")?;
                        return Ok(());
                    }
                };
                match reload_index(ctx, &path) {
                    Ok(epoch) => {
                        let msg = format!("epoch={epoch}");
                        writer.write_frame(proto::OK, msg.as_bytes())?;
                    }
                    Err(msg) => {
                        writer.write_frame(proto::ERR, msg.as_bytes())?;
                        return Ok(());
                    }
                }
            }
            proto::SHUTDOWN => {
                writer.write_frame(proto::OK, b"draining")?;
                ctx.shutdown.store(true, Ordering::Release);
                return Ok(());
            }
            other => {
                let msg = format!("unknown frame type 0x{other:02x}");
                writer.write_frame(proto::ERR, msg.as_bytes())?;
                return Ok(());
            }
        }
    }
}

/// Per-connection decorrelated-jitter backoff for RETRY hints
/// (`next = clamp(base, uniform(base, prev*3), cap)`): a thundering
/// herd of identical clients gets spread-out retry times instead of a
/// synchronized second stampede. Admitting a request resets the state.
/// Retry timing is operational, not part of SAM byte determinism, so a
/// wall-clock-seeded RNG is fine here.
struct Backoff {
    base: u64,
    cap: u64,
    prev: u64,
    rng: StdRng,
}

impl Backoff {
    fn new(base_ms: u64) -> Backoff {
        let base = base_ms.max(1);
        let seed = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
            .unwrap_or(0x9e37_79b9);
        Backoff {
            base,
            cap: base.saturating_mul(32).min(10_000).max(base),
            prev: base,
            rng: StdRng::seed_from_u64(seed ^ olog::next_id()),
        }
    }

    fn next(&mut self) -> u64 {
        let hi = self.prev.saturating_mul(3).max(self.base + 1);
        let drawn = self.rng.random_range(self.base..hi);
        self.prev = drawn.clamp(self.base, self.cap);
        self.prev
    }

    fn reset(&mut self) {
        self.prev = self.base;
    }
}

/// Process one END: parse, admit (or RETRY), stream the reply. Returns
/// `Ok(false)` when the connection should close (request-level failure
/// already reported to the peer).
fn finish_request(
    ctx: &ConnCtx,
    overrides: &OptsOverride,
    opts: &MemOpts,
    data: &mut Vec<u8>,
    writer: &mut FrameWriter<Conn>,
    backoff: &mut Backoff,
) -> io::Result<bool> {
    let bytes = std::mem::take(data);
    if ctx.shutdown.load(Ordering::Acquire) {
        writer.write_frame(proto::ERR, b"server draining")?;
        return Ok(false);
    }

    // parse the request's FASTQ (any DATA chunking; records may have
    // split anywhere)
    let mut records = Vec::new();
    for rec in FastqStream::new(&bytes[..]) {
        match rec {
            Ok(r) => records.push(r),
            Err(e) => {
                let msg = format!("bad FASTQ in request: {e}");
                writer.write_frame(proto::ERR, msg.as_bytes())?;
                return Ok(false);
            }
        }
    }
    if records.is_empty() {
        let done = format!("reads=0\trecords=0\tepoch={}", ctx.slot.epoch());
        writer.write_frame(proto::DONE, done.as_bytes())?;
        return Ok(true);
    }

    let payload = match overrides.mode {
        RequestMode::Single => Payload::Single(
            records
                .into_iter()
                .map(PreparedRead::from_fastq_owned)
                .collect(),
        ),
        RequestMode::Paired => {
            if !records.len().is_multiple_of(2) {
                let msg = format!(
                    "mode=pe needs interleaved pairs: got {} reads (odd)",
                    records.len()
                );
                writer.write_frame(proto::ERR, msg.as_bytes())?;
                return Ok(false);
            }
            Payload::Paired(pairs_from_interleaved(records))
        }
    };

    let (reply_tx, reply_rx) = sync_channel(1);
    let sub = Submission {
        fingerprint: overrides.fingerprint(),
        opts: *opts,
        pes_override: ctx.pes_override,
        payload,
        reply: reply_tx,
        enqueued: Instant::now(),
    };
    if ctx.batcher.try_submit(sub).is_err() {
        // explicit backpressure: nothing was admitted, client retries
        // after a decorrelated-jittered hint so herds spread out
        let hint = backoff.next();
        writer.write_frame(proto::RETRY, hint.to_string().as_bytes())?;
        return Ok(true);
    }
    backoff.reset();

    // the worker pool owns the request now; recv blocks until our slab
    // ran (drain still completes admitted work, so this always ends) or
    // the request's hard deadline expires
    let reply = match ctx.request_timeout {
        Some(deadline) => match reply_rx.recv_timeout(deadline) {
            Ok(r) => r,
            Err(RecvTimeoutError::Timeout) => {
                // dropping reply_rx makes the worker's eventual send a
                // harmless no-op; the slot is freed now
                ctx.batcher
                    .counters()
                    .deadlines_expired
                    .fetch_add(1, Ordering::Relaxed);
                olog::warn(
                    "serve",
                    "request deadline exceeded; answering ERR",
                    &[("deadline_ms", &deadline.as_millis())],
                );
                writer.write_frame(proto::ERR, b"request deadline exceeded")?;
                return Ok(false);
            }
            Err(RecvTimeoutError::Disconnected) => {
                return Err(io::Error::other("alignment worker dropped the request"))
            }
        },
        None => reply_rx
            .recv()
            .map_err(|_| io::Error::other("alignment worker dropped the request"))?,
    };

    // a slab panic answers this request with ERR; the daemon (and this
    // connection's peer protocol state) is already safe to continue,
    // but ERR closes the turn-based connection by contract
    if let Some(msg) = reply.error {
        let msg = format!("alignment failed: {msg}");
        writer.write_frame(proto::ERR, msg.as_bytes())?;
        return Ok(false);
    }

    if faultsim::fire(faultsim::WRITE_TEAR).is_some() {
        // promise a frame, deliver a fragment, drop the connection —
        // the client-visible shape of a daemon crash mid-response
        let header = encode_frame_header(proto::SAM, 4096)?;
        let raw = writer.get_mut();
        raw.write_all(&header)?;
        raw.write_all(&[b'@'; 100])?;
        raw.flush()?;
        return Err(io::Error::new(
            io::ErrorKind::BrokenPipe,
            "injected torn frame (faultsim)",
        ));
    }

    // stream the records out in bounded frames, rendered here on the
    // connection thread by the SAM writer `mem2 mem` uses
    let mut chunk = Vec::with_capacity(SAM_CHUNK + 1024);
    for rec in &reply.records {
        rec.write_line(&mut chunk);
        chunk.push(b'\n');
        if chunk.len() >= SAM_CHUNK {
            writer.write_frame(proto::SAM, &chunk)?;
            chunk.clear();
        }
    }
    if !chunk.is_empty() {
        writer.write_frame(proto::SAM, &chunk)?;
    }
    let done = format!(
        "reads={}\trecords={}\tepoch={}",
        reply.reads,
        reply.records.len(),
        reply.epoch
    );
    writer.write_frame(proto::DONE, done.as_bytes())?;
    Ok(true)
}

/// The STATS snapshot: queue state, traffic counters (`reads` ÷ `slabs`
/// is the batch occupancy), and per-stage latency distributions.
/// Hand-rolled JSON (no JSON library dependency), flat enough for
/// `grep`/`jq` alike.
///
/// Schema v2: `queue_wait`, `service`, and `stages` carry mean plus
/// p50/p90/p99/max summaries whose fields are `null` when nothing has
/// been observed — distinct from a true measured 0. `scheduler` is the
/// object `mem2 mem --profile=json` prints, per pool worker, over the
/// daemon's uptime.
fn render_stats(ctx: &ConnCtx) -> String {
    let b = &ctx.batcher;
    let c = b.counters();
    let times = b.stage_times();
    let stages: Vec<String> = mem2_core::profile::STAGE_NAMES
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let snap = times.hists[i].snapshot();
            format!(
                "\"{}\": {{\"total_ms\": {:.3}, \"calls\": {}, {}}}",
                name,
                times.totals[i].as_secs_f64() * 1e3,
                snap.count,
                percentile_fields_us(&snap).replace("\":", "\": "),
            )
        })
        .collect();
    format!(
        concat!(
            "{{\"uptime_ms\": {}, \"queue_depth\": {}, \"queue_cap\": {}, ",
            "\"active_connections\": {}, \"requests_admitted\": {}, ",
            "\"requests_rejected\": {}, \"reads\": {}, \"records\": {}, ",
            "\"slabs\": {}, \"slab_panics\": {}, \"deadlines_expired\": {}, ",
            "\"epoch\": {}, \"swaps\": {}, \"swap_failures\": {}, ",
            "\"scheduler\": {}, \"queue_wait\": {}, \"service\": {}, \"stages\": {{{}}}}}"
        ),
        ctx.started.elapsed().as_millis(),
        b.queue_depth(),
        ctx.queue_cap,
        c.active_connections.load(Ordering::Relaxed),
        c.admitted.load(Ordering::Relaxed),
        c.rejected.load(Ordering::Relaxed),
        c.reads.load(Ordering::Relaxed),
        c.records.load(Ordering::Relaxed),
        c.slabs.load(Ordering::Relaxed),
        c.slab_panics.load(Ordering::Relaxed),
        c.deadlines_expired.load(Ordering::Relaxed),
        b.slot().epoch(),
        b.slot().swaps(),
        b.slot().swap_failures(),
        b.scheduler(ctx.started.elapsed()).render_json(),
        latency_summary(&c.queue_wait_hist.snapshot()),
        latency_summary(&c.service_hist.snapshot()),
        stages.join(", "),
    )
}

/// One latency distribution as JSON: mean plus percentile fields, all
/// `null` when the distribution is empty ("no data" is not "0 ms").
fn latency_summary(snap: &mem2_obs::HistSnapshot) -> String {
    let mean_ms = match snap.mean() {
        Some(us) => format!("{:.3}", us / 1e3),
        None => "null".into(),
    };
    format!(
        "{{\"count\": {}, \"mean_ms\": {}, {}}}",
        snap.count,
        mean_ms,
        percentile_fields_us(snap).replace("\":", "\": "),
    )
}

// ---------------------------------------------------------------------
// timeout-aware frame reading
// ---------------------------------------------------------------------

/// Read exactly `buf` while the socket's read timeout ticks: timeouts
/// *before the first byte* poll the drain flag (returning `false` to
/// close idle connections on drain, and on EOF); once a frame has
/// started, timeouts keep retrying up to the connection's `stall`
/// budget ([`ServeConfig::conn_stall`]).
fn read_exact_idle(
    conn: &mut Conn,
    buf: &mut [u8],
    shutdown: &AtomicBool,
    stall: Duration,
) -> io::Result<bool> {
    let mut filled = 0;
    let mut started: Option<Instant> = None;
    while filled < buf.len() {
        // faultsim: cap each read() so frames arrive in tiny fragments
        // and the reassembly path actually runs under test
        let end = match faultsim::fire(faultsim::SHORT_READ) {
            Some(cap) => (filled + (cap.max(1) as usize)).min(buf.len()),
            None => buf.len(),
        };
        match conn.read(&mut buf[filled..end]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(false)
                } else {
                    Err(io::ErrorKind::UnexpectedEof.into())
                }
            }
            Ok(n) => {
                filled += n;
                started.get_or_insert_with(Instant::now);
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                match started {
                    None => {
                        if shutdown.load(Ordering::Acquire) {
                            return Ok(false);
                        }
                    }
                    Some(t) if t.elapsed() > stall => {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "peer stalled mid-frame",
                        ));
                    }
                    Some(_) => {}
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Read one frame with idle-aware timeouts; `None` = clean close (EOF
/// at a boundary, or drain while idle).
fn read_frame_idle(
    conn: &mut Conn,
    shutdown: &AtomicBool,
    stall: Duration,
) -> io::Result<Option<Frame>> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    if !read_exact_idle(conn, &mut header, shutdown, stall)? {
        return Ok(None);
    }
    let (ty, len) = decode_frame_header(header)?;
    let mut payload = vec![0u8; len];
    if len > 0 && !read_exact_idle(conn, &mut payload, shutdown, stall)? {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    Ok(Some(Frame { ty, payload }))
}
