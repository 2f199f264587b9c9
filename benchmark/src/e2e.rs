//! End-to-end measurement, taken from outside as a user sees the system:
//! inputs are written to disk, the release `mem2` binary runs as a child
//! process (`mem2 index`, `mem2 mem -t 2`, `mem2 serve -t 1`), and wall
//! time, CPU time and peak RSS come from `wait4`. Nothing here calls into
//! the aligner's crates except the simulators that make the inputs and the
//! wire-protocol client that talks to the daemon.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use mem2_seqio::Reference;
use mem2_server::{Client, Endpoint};

use crate::json::Json;
use crate::load::{drive, Outcome, Pacing};
use crate::proc::{run, Running, Usage};
use crate::quiet::Gate;
use crate::stats::{highest_supported_percentile, median, percentile};
use crate::verify::{score_sam, sha256_hex, Score, Sha256};
use crate::workloads::{self, Kind, ReadSet, Request, Scale, ServeShape, Spec};

/// Threads given to `mem2 mem`; the daemon gets one worker and
/// [`CONNECTIONS`] clients, so the 2-core sizing host is never oversubscribed
/// by the program under test alone.
const MEM_THREADS: &str = "2";
pub const CONNECTIONS: usize = 2;
/// `startup_ms` is the median of this many cold process starts.
const STARTUP_REPS: usize = 7;
/// `mem2 index` runs [`MIN_INDEX_REPS`] times, then repeats while its
/// cumulative wall time is under this many seconds, at most
/// [`MAX_INDEX_REPS`] times; `setup_s` is the median. (The bundle write
/// ends in an fsync, whose latency on a shared disk varies a lot.)
const INDEX_BUDGET_S: f64 = 3.0;
const MIN_INDEX_REPS: usize = 3;
const MAX_INDEX_REPS: usize = 5;
/// Share of the input (batch) or of the timed phase (daemon) the untimed
/// warm-up covers.
const WARMUP_SHARE: f64 = 0.1;

pub struct Config {
    /// The release `mem2` binary.
    pub mem2: PathBuf,
    /// Scratch directory inside the checkout; emptied by the caller.
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
}

impl Config {
    pub fn scale(&self) -> Scale {
        Scale {
            time: self.seconds / 10.0,
            quick: self.quick,
        }
    }

    /// The quiet-host gate, whose record lives beside the work directory
    /// and is kept per workload and size.
    fn gate(&self, spec: &Spec) -> Gate {
        let size = if self.quick { "quick" } else { "full" };
        Gate::open(
            self.work.parent().unwrap_or(&self.work),
            format!("{} {} s {size}", spec.name, self.seconds),
        )
    }

    /// A `mem2` invocation with stdout discarded and stderr appended to the
    /// work directory's log.
    fn mem2(&self, args: &[&str]) -> std::io::Result<Command> {
        let log = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.work.join("mem2.stderr.log"))?;
        let mut cmd = Command::new(&self.mem2);
        cmd.args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log);
        Ok(cmd)
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `None`: the workload does not exercise what the metric measures.
    pub value: Option<f64>,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value: Some(value),
    }
}

/// One workload's result.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Ungated facts about the run: digests, exact counts, guards.
    pub info: Vec<(String, Json)>,
    pub warnings: Vec<String>,
}

type Res<T> = Result<T, Box<dyn std::error::Error>>;

fn path_str(p: &Path) -> &str {
    p.to_str().expect("work paths are ASCII")
}

/// `mem2 index`, repeated; the bundle of the last run stays on disk.
struct Setup {
    idx: PathBuf,
    setup_s: f64,
    setup_peak_rss_mb: f64,
    index_mb: f64,
    reps: usize,
}

fn build_index(cfg: &Config, fasta: &Path) -> Res<Setup> {
    let idx = cfg.work.join("ref.idx");
    let (mut walls, mut rss) = (Vec::new(), Vec::new());
    while walls.len() < MIN_INDEX_REPS
        || (walls.len() < MAX_INDEX_REPS && walls.iter().sum::<f64>() < INDEX_BUDGET_S)
    {
        let u = run(&mut cfg.mem2(&["index", path_str(fasta), path_str(&idx)])?)?;
        if !u.success {
            return Err("mem2 index failed (see mem2.stderr.log)".into());
        }
        walls.push(u.wall_s);
        rss.push(u.peak_rss_mb);
    }
    Ok(Setup {
        index_mb: std::fs::metadata(&idx)?.len() as f64 / 1e6,
        idx,
        setup_s: median(&walls),
        setup_peak_rss_mb: median(&rss),
        reps: walls.len(),
    })
}

/// Spawn to first SAM record on stdout, milliseconds, for a one-read input.
fn batch_startup_ms(cfg: &Config, idx: &Path, one_read: &[PathBuf]) -> Res<f64> {
    let mut args = vec!["mem", "-t", MEM_THREADS, path_str(idx)];
    args.extend(one_read.iter().map(|p| path_str(p)));
    let mut cmd = cfg.mem2(&args)?;
    cmd.stdout(Stdio::piped());
    let mut child = Running::spawn(&mut cmd)?;
    let stdout = child.child_mut().stdout.take().expect("stdout is piped");
    let mut first_record_ms = None;
    for line in BufReader::new(stdout).lines() {
        if !line?.starts_with('@') && first_record_ms.is_none() {
            first_record_ms = Some(child.started().elapsed().as_secs_f64() * 1e3);
        }
    }
    if !child.finish()?.success {
        return Err("mem2 mem failed on the one-read input".into());
    }
    first_record_ms.ok_or_else(|| "mem2 mem printed no record for the one-read input".into())
}

/// The warning a run carries when its accuracy is below the workload's
/// floor (which also fails its output check).
pub fn floor_warning(spec: &Spec, share: f64) -> Option<String> {
    (share < spec.floor_correct).then(|| {
        format!(
            "mapped_correct_share {share:.4} is below the floor {}",
            spec.floor_correct
        )
    })
}

fn common_metrics(setup: &Setup, startup_ms: &[f64]) -> Vec<Metric> {
    vec![
        metric("startup_ms", "ms", median(startup_ms)),
        metric("setup_s", "s", setup.setup_s),
        metric("setup_peak_rss_mb", "MB", setup.setup_peak_rss_mb),
        metric("index_mb", "MB", setup.index_mb),
    ]
}

pub fn run_workload(spec: &Spec, cfg: &Config) -> Res<Report> {
    match spec.kind {
        Kind::BatchSe(_) | Kind::BatchPeGz(_) => run_batch(spec, cfg),
        Kind::Serve(shape) => run_serve(spec, &shape, cfg),
    }
}

// ---------------------------------------------------------------------
// Batch workloads
// ---------------------------------------------------------------------

/// A batch workload's inputs, on disk and in memory.
pub struct BatchInputs {
    pub reference: Reference,
    pub set: ReadSet,
    pub fasta: PathBuf,
    /// The timed job's read files: one (SE) or two (R1, R2).
    pub full: Vec<PathBuf>,
    /// The first [`WARMUP_SHARE`] of them, for the untimed warm-up.
    pub warm: Vec<PathBuf>,
    /// The first read (or pair), for `startup_ms`.
    pub one: Vec<PathBuf>,
    /// SHA-256 over the FASTA and the full FASTQ text.
    pub digest: String,
}

/// Generate a batch workload's inputs from the seed and write them into
/// the work directory. This is the benchmark's own cost: no metric covers
/// it.
pub fn batch_inputs(spec: &Spec, cfg: &Config) -> Res<BatchInputs> {
    let scale = cfg.scale();
    let units = scale.units(spec.units_per_10s);
    let compress = matches!(spec.kind, Kind::BatchPeGz(_));
    let reference = workloads::make_reference(spec, cfg.seed, scale);
    let set = workloads::batch_reads(spec, &reference, cfg.seed, units);
    let fasta = cfg.work.join("ref.fasta");
    let fasta_text = workloads::fasta_text(&reference);
    let mut digest = Sha256::default();
    digest.update(fasta_text.as_bytes());
    std::fs::write(&fasta, fasta_text)?;
    let write = |n: usize, stem: &str, digest: Option<&mut Sha256>| {
        workloads::write_reads(&set, n, &cfg.work, stem, compress, digest)
    };
    let full = write(units, "reads", Some(&mut digest))?;
    let warm = write(
        ((units as f64 * WARMUP_SHARE) as usize).max(1),
        "warm",
        None,
    )?;
    let one = write(1, "one", None)?;
    Ok(BatchInputs {
        reference,
        set,
        fasta,
        full,
        warm,
        one,
        digest: digest.hex(),
    })
}

/// `mem2 mem -t 2 -o <out> <idx> <files>`, run to completion.
pub fn mem_job(cfg: &Config, idx: &Path, out: &Path, files: &[PathBuf]) -> Res<Usage> {
    let mut args = vec!["mem", "-t", MEM_THREADS, "-o", path_str(out), path_str(idx)];
    args.extend(files.iter().map(|p| path_str(p)));
    Ok(run(&mut cfg.mem2(&args)?)?)
}

fn run_batch(spec: &Spec, cfg: &Config) -> Res<Report> {
    let BatchInputs {
        reference,
        set,
        fasta,
        full,
        warm,
        one,
        digest: input_digest,
    } = batch_inputs(spec, cfg)?;

    // -- set-up: mem2 index --
    let setup = build_index(cfg, &fasta)?;

    // -- warm-up: page cache holds the bundle and the inputs; repeated
    // while the host is disturbed --
    let mut gate = cfg.gate(spec);
    gate.settle(|| -> Res<f64> {
        let usage = mem_job(cfg, &setup.idx, &cfg.work.join("warm.sam"), &warm)?;
        if !usage.success {
            return Err("warm-up mem2 mem failed (see mem2.stderr.log)".into());
        }
        Ok(usage.wall_s)
    })?;

    // -- startup: cold process to first record --
    let mut startup = Vec::with_capacity(STARTUP_REPS);
    for _ in 0..STARTUP_REPS {
        startup.push(batch_startup_ms(cfg, &setup.idx, &one)?);
    }

    // -- the timed region: the same job several times; the fastest counts --
    let out_sam = cfg.work.join("out.sam");
    let mut jobs = Vec::with_capacity(spec.jobs);
    for _ in 0..spec.jobs {
        jobs.push(mem_job(cfg, &setup.idx, &out_sam, &full)?);
    }
    let all_succeeded = jobs.iter().all(|u| u.success);
    let job_walls: Vec<f64> = jobs.iter().map(|u| u.wall_s).collect();
    // how far the reader runs ahead of the workers is a race, and with it
    // how many batches are resident at once: the smallest footprint repeats
    let peak_rss_mb = jobs
        .iter()
        .map(|u| u.peak_rss_mb)
        .fold(f64::INFINITY, f64::min);
    let usage = jobs
        .into_iter()
        .min_by(|a, b| a.wall_s.total_cmp(&b.wall_s))
        .expect("a workload times at least one job");

    // -- verify: the last job's output (every job writes the same file) --
    let n_reads = set.n_reads() as u64;
    let (score, sam_sha256) = if all_succeeded {
        let sam = std::fs::read_to_string(&out_sam)?;
        (
            score_sam(&sam, &set.expected_names(), &set.shape),
            sha256_hex(sam.as_bytes()),
        )
    } else {
        let lost = Score {
            reads: n_reads,
            missing: n_reads,
            ..Score::default()
        };
        (lost, String::new())
    };
    let share = score.mapped_correct_share();
    let mut warnings: Vec<String> = gate.warning().into_iter().collect();
    if !all_succeeded {
        warnings.push("mem2 mem exited non-zero (see mem2.stderr.log)".to_string());
    }
    warnings.extend(floor_warning(spec, share));

    let job_ms = usage.wall_s * 1e3;
    let mut metrics = vec![
        metric("reads_per_s", "reads/s", n_reads as f64 / usage.wall_s),
        metric("cpu_ms_per_read", "ms", usage.cpu_s * 1e3 / n_reads as f64),
        metric("peak_rss_mb", "MB", peak_rss_mb),
        // a batch job has one latency, its completion time
        metric("latency_p50_ms", "ms", job_ms),
        metric("latency_p95_ms", "ms", job_ms),
        metric("mapped_correct_share", "fraction", share),
    ];
    metrics.extend(common_metrics(&setup, &startup));
    Ok(Report {
        correct: all_succeeded && score.missing == 0 && share >= spec.floor_correct,
        attempted: n_reads,
        failed: score.missing,
        metrics,
        info: vec![
            ("sam_sha256".into(), Json::str(sam_sha256)),
            ("input_sha256".into(), Json::str(input_digest)),
            ("reads".into(), Json::Int(n_reads as i64)),
            ("reference_bp".into(), Json::Int(reference.len() as i64)),
            ("index_reps".into(), Json::Int(setup.reps as i64)),
            (
                "job_wall_s".into(),
                Json::Arr(job_walls.into_iter().map(Json::Num).collect()),
            ),
            ("placeable_reads".into(), Json::Int(score.placeable as i64)),
            ("correct_reads".into(), Json::Int(score.correct as i64)),
        ]
        .into_iter()
        .chain(gate.info())
        .collect(),
        warnings,
    })
}

// ---------------------------------------------------------------------
// Daemon workload
// ---------------------------------------------------------------------

/// A one-read single-end request cut from the head of the first
/// single-end request.
pub fn one_read_request(requests: &[Request]) -> Request {
    let src = requests
        .iter()
        .find(|r| !r.paired)
        .expect("the mix holds single-end requests");
    let first_record = src.fastq.split_inclusive(|&b| b == b'\n').take(4);
    Request {
        paired: false,
        fastq: first_record.flatten().copied().collect(),
        names: vec![src.names[0].clone()],
    }
}

/// A running `mem2 serve` child.
pub struct Daemon {
    child: Running,
    pub endpoint: Endpoint,
}

impl Daemon {
    /// Spawn the daemon and wait until it answers a one-read request;
    /// returns it with spawn-to-first-reply in milliseconds.
    pub fn start(
        cfg: &Config,
        shape: &ServeShape,
        idx: &Path,
        probe: &Request,
    ) -> Res<(Daemon, f64)> {
        // a relative path: Unix socket addresses are limited to ~100 bytes
        let socket = cfg.work.join("serve.sock");
        let _ = std::fs::remove_file(&socket);
        let insert = format!("{},{}", shape.pe.insert_mean, shape.pe.insert_std);
        let mut child = Running::spawn(&mut cfg.mem2(&[
            "serve",
            "-t",
            "1",
            "-I",
            &insert,
            "--socket",
            path_str(&socket),
            // a stuck request answers ERR instead of hanging the run
            "--request-timeout",
            "10000",
            path_str(idx),
        ])?)?;
        let endpoint = Endpoint::Unix(socket);
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Ok(mut client) = Client::connect(&endpoint) {
                client.align_with_retry(&probe.fastq, 3)?;
                let ms = child.started().elapsed().as_secs_f64() * 1e3;
                return Ok((Daemon { child, endpoint }, ms));
            }
            if child.child_mut().try_wait()?.is_some() {
                return Err("mem2 serve exited before listening (see mem2.stderr.log)".into());
            }
            if Instant::now() > deadline {
                return Err("mem2 serve did not start listening within 60 s".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// The daemon's STATS reply.
    pub fn stats(&self) -> Res<Json> {
        let text = Client::connect(&self.endpoint)?.stats()?;
        Ok(Json::parse(&text)?)
    }

    /// Ask for a drain and wait for the process to end.
    pub fn stop(self) -> Res<Usage> {
        Client::connect(&self.endpoint)?.shutdown()?;
        Ok(self.child.finish()?)
    }
}

/// Score the replies of one phase; failed requests count all their reads
/// as missing.
pub fn score_outcomes<'a>(
    outcomes: impl IntoIterator<Item = &'a Outcome>,
    requests: &[Request],
    shape: &ServeShape,
) -> Score {
    let mut total = Score::default();
    for o in outcomes {
        let req = &requests[o.request];
        let read_shape = if req.paired {
            shape.pe.read_shape()
        } else {
            shape.se.read_shape()
        };
        match &o.sam {
            Some(sam) => total.add(&score_sam(sam, &req.names, &read_shape)),
            None => total.add(&Score {
                reads: req.n_reads() as u64,
                missing: req.n_reads() as u64,
                ..Score::default()
            }),
        }
    }
    total
}

/// The timed phase is this many closed loops run one after the other, each
/// a fifth of `--seconds`, and a metric is its best value over them. The
/// sizing host alternates, every few seconds, between its full speed and
/// about three quarters of it; a mean or a median over the phase reports the
/// mixture the run happened to meet, the best window reports the program.
const WINDOWS: usize = 5;

/// One closed loop of the timed phase.
struct Window {
    reads_per_s: f64,
    /// Daemon CPU time (all its threads) per read answered.
    cpu_ms_per_read: f64,
    latency_p50_ms: f64,
    latency_p95_ms: f64,
}

/// Summarise one closed loop from its outcomes and the daemon CPU seconds
/// it cost; `None` if no request succeeded.
fn window(outcomes: &[Outcome], requests: &[Request], cpu_s: f64) -> Option<Window> {
    let ok: Vec<&Outcome> = outcomes.iter().filter(|o| o.sam.is_some()).collect();
    let reads: usize = ok.iter().map(|o| requests[o.request].n_reads()).sum();
    // the loop lasts until its last reply, a little past the time it was given
    let elapsed_s = ok.iter().map(|o| o.done_ns).max()? as f64 / 1e9;
    let latencies: Vec<f64> = ok.iter().map(|o| o.latency_ms()).collect();
    Some(Window {
        reads_per_s: reads as f64 / elapsed_s,
        cpu_ms_per_read: cpu_s * 1e3 / reads as f64,
        latency_p50_ms: median(&latencies),
        latency_p95_ms: percentile(&latencies, 95.0),
    })
}

/// Length of the timed closed-loop phase at this run's `--seconds`.
pub fn closed_phase(cfg: &Config) -> Duration {
    Duration::from_secs_f64(cfg.seconds * if cfg.quick { 0.2 } else { 1.0 })
}

/// Requests the traced run's open-loop phase sends at this run's
/// `--seconds`.
pub fn open_requests(shape: &ServeShape, cfg: &Config) -> usize {
    let open_s = closed_phase(cfg).as_secs_f64() * shape.open_share;
    ((shape.open_rate_rps * open_s) as usize).max(1)
}

fn run_serve(spec: &Spec, shape: &ServeShape, cfg: &Config) -> Res<Report> {
    let scale = cfg.scale();
    let phase = closed_phase(cfg);

    // -- inputs --
    let reference = workloads::make_reference(spec, cfg.seed, scale);
    let fasta = cfg.work.join("ref.fasta");
    std::fs::write(&fasta, workloads::fasta_text(&reference))?;
    let pool = workloads::make_requests(shape, &reference, cfg.seed, shape.pool);
    let input_digest = workloads::requests_digest(&pool);
    let probe = one_read_request(&pool);

    // -- set-up --
    let setup = build_index(cfg, &fasta)?;

    // -- startup: spawn to first successful one-read request --
    let mut startup = Vec::with_capacity(STARTUP_REPS);
    for _ in 0..STARTUP_REPS {
        let (daemon, ms) = Daemon::start(cfg, shape, &setup.idx, &probe)?;
        startup.push(ms);
        daemon.stop()?;
    }

    // -- the measured daemon: warm-up, then the timed closed loops --
    let (daemon, _) = Daemon::start(cfg, shape, &setup.idx, &probe)?;
    let closed_loop = |duration: Duration| {
        drive(
            &daemon.endpoint,
            &pool,
            Pacing::Closed { duration },
            CONNECTIONS,
        )
    };
    // seconds per read answered: repeated while the host is disturbed
    let mut gate = cfg.gate(spec);
    gate.settle(|| -> Res<f64> {
        let warm = closed_loop(phase.mul_f64(WARMUP_SHARE));
        let warm = window(&warm, &pool, 0.0)
            .ok_or("the daemon answered no warm-up request (see mem2.stderr.log)")?;
        Ok(1.0 / warm.reads_per_s)
    })?;
    let mut timed = Vec::new();
    let mut windows = Vec::with_capacity(WINDOWS);
    for _ in 0..WINDOWS {
        let cpu_before = daemon.child.cpu_s_so_far()?;
        let outcomes = closed_loop(phase / WINDOWS as u32);
        let cpu_s = daemon.child.cpu_s_so_far()? - cpu_before;
        windows.extend(window(&outcomes, &pool, cpu_s));
        timed.extend(outcomes);
    }
    let usage = daemon.stop()?;

    // -- verify --
    // every request of the pool is sent several times; the daemon must give
    // the same bytes each time, and accuracy is scored once per request, so
    // it repeats exactly however many requests the host got through
    let mut first_reply: Vec<Option<&Outcome>> = vec![None; pool.len()];
    let mut replies_agree = true;
    for o in timed.iter().filter(|o| o.sam.is_some()) {
        match first_reply[o.request] {
            Some(first) => replies_agree &= first.sam == o.sam,
            None => first_reply[o.request] = Some(o),
        }
    }
    let distinct: Vec<&Outcome> = first_reply.iter().flatten().copied().collect();
    let score = score_outcomes(distinct.iter().copied(), &pool, shape);
    let failed_requests = timed.iter().filter(|o| o.sam.is_none()).count() as u64;
    let mut sha = Sha256::default();
    for o in &distinct {
        sha.update(o.sam.as_deref().unwrap_or("").as_bytes());
    }
    let share = score.mapped_correct_share();

    // -- metrics --
    if windows.is_empty() {
        return Err("the daemon answered no request (see mem2.stderr.log)".into());
    }
    let each = |value: fn(&Window) -> f64| -> Vec<f64> { windows.iter().map(value).collect() };
    let lowest = |values: &[f64]| values.iter().copied().fold(f64::INFINITY, f64::min);
    let reads_per_s = each(|w| w.reads_per_s);
    let cpu_ms_per_read = each(|w| w.cpu_ms_per_read);
    let latency_p50_ms = each(|w| w.latency_p50_ms);
    let latency_p95_ms = each(|w| w.latency_p95_ms);
    let latencies: Vec<f64> = timed.iter().map(Outcome::latency_ms).collect();
    let per_window = timed.len() / WINDOWS;

    let mut warnings: Vec<String> = gate.warning().into_iter().collect();
    if !usage.success {
        warnings.push("mem2 serve exited non-zero (see mem2.stderr.log)".to_string());
    }
    if !replies_agree {
        warnings.push("the daemon answered one request with different bytes".to_string());
    }
    if distinct.len() < pool.len() {
        warnings.push(format!(
            "only {} of the pool's {} requests were answered: accuracy does not cover the pool",
            distinct.len(),
            pool.len()
        ));
    }
    if highest_supported_percentile(per_window).is_none_or(|p| p < 95.0) {
        warnings.push(format!(
            "{per_window} requests per window leave fewer than ten samples beyond p95"
        ));
    }
    warnings.extend(floor_warning(spec, share));

    let mut metrics = vec![
        metric(
            "reads_per_s",
            "reads/s",
            reads_per_s.iter().copied().fold(0.0, f64::max),
        ),
        metric("cpu_ms_per_read", "ms", lowest(&cpu_ms_per_read)),
        metric("peak_rss_mb", "MB", usage.peak_rss_mb),
        metric("latency_p50_ms", "ms", lowest(&latency_p50_ms)),
        metric("latency_p95_ms", "ms", lowest(&latency_p95_ms)),
        metric("mapped_correct_share", "fraction", share),
    ];
    metrics.extend(common_metrics(&setup, &startup));
    let nums = |v: &[f64]| Json::Arr(v.iter().copied().map(Json::Num).collect());
    Ok(Report {
        correct: usage.success
            && failed_requests == 0
            && replies_agree
            && score.missing == 0
            && share >= spec.floor_correct,
        attempted: timed.len() as u64,
        failed: failed_requests,
        metrics,
        info: vec![
            ("sam_sha256".into(), Json::str(sha.hex())),
            ("input_sha256".into(), Json::str(input_digest)),
            ("reads".into(), Json::Int(score.reads as i64)),
            ("reference_bp".into(), Json::Int(reference.len() as i64)),
            ("index_reps".into(), Json::Int(setup.reps as i64)),
            ("connections".into(), Json::Int(CONNECTIONS as i64)),
            ("pool_requests".into(), Json::Int(pool.len() as i64)),
            ("closed_requests".into(), Json::Int(timed.len() as i64)),
            ("closed_seconds".into(), Json::Num(phase.as_secs_f64())),
            ("window_reads_per_s".into(), nums(&reads_per_s)),
            ("window_cpu_ms_per_read".into(), nums(&cpu_ms_per_read)),
            ("window_latency_p50_ms".into(), nums(&latency_p50_ms)),
            ("window_latency_p95_ms".into(), nums(&latency_p95_ms)),
            (
                "latency_ms_p99_whole_phase".into(),
                Json::Num(percentile(&latencies, 99.0)),
            ),
            ("placeable_reads".into(), Json::Int(score.placeable as i64)),
            ("correct_reads".into(), Json::Int(score.correct as i64)),
        ]
        .into_iter()
        .chain(gate.info())
        .collect(),
        warnings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn done(request: usize, done_ns: u64, ok: bool) -> Outcome {
        Outcome {
            request,
            due_ns: 0,
            free_ns: 0,
            sent_ns: 0,
            done_ns,
            wire_bytes: 0,
            sam: ok.then(String::new),
        }
    }

    #[test]
    fn a_window_counts_only_answered_requests_and_lasts_until_its_last_reply() {
        let requests = vec![Request {
            paired: false,
            fastq: Vec::new(),
            names: vec![String::new(); 10],
        }];
        // three replies 4 ms after they were due, the last at 0.5 s; one
        // request failed later
        let mut outcomes: Vec<Outcome> = [100u64, 300, 500]
            .into_iter()
            .map(|ms| {
                let mut o = done(0, ms * 1_000_000, true);
                o.due_ns = o.done_ns - 4_000_000;
                o
            })
            .collect();
        outcomes.push(done(0, 900_000_000, false));
        let w = window(&outcomes, &requests, 0.3).unwrap();
        assert_eq!(w.reads_per_s, 60.0);
        assert_eq!(w.cpu_ms_per_read, 10.0);
        assert_eq!(w.latency_p50_ms, 4.0);
        assert_eq!(w.latency_p95_ms, 4.0);
        assert!(window(&outcomes[3..], &requests, 0.3).is_none());
    }

    #[test]
    fn one_read_request_is_the_first_record_of_the_first_single_end_request() {
        let paired = Request {
            paired: true,
            fastq: b"@p/1\nAC\n+\nII\n@p/2\nGT\n+\nII\n".to_vec(),
            names: vec!["p/1".into(), "p/2".into()],
        };
        let single = Request {
            paired: false,
            fastq: b"@a\nACGT\n+\nIIII\n@b\nTTTT\n+\nIIII\n".to_vec(),
            names: vec!["a".into(), "b".into()],
        };
        let one = one_read_request(&[paired, single]);
        assert_eq!(one.fastq, b"@a\nACGT\n+\nIIII\n");
        assert_eq!(one.names, ["a"]);
    }
}
