//! The traced run (`--trace 1`): each workload's reads replayed in
//! process, on one thread, layer by layer through `layers.rs`, with a span
//! around every call. Per-layer metrics come from span self time and from
//! exact counts; "share" always means span self time ÷ the `core.pipeline`
//! span over the same reads. The spans are written to
//! `benchmark/out/trace-<workload>.jsonl` when the run ends.

use std::path::Path;
use std::time::Instant;

use mem2_core::{Aligner, MemOpts, SamRecord, Workflow};
use mem2_pairing::{pairs_from_interleaved, PeStats};
use mem2_seqio::{encode_base, revcomp_codes, write_fastq, FastqRecord, PairTruth, ReadPair};

use crate::e2e::{self, metric, Config, Daemon, Metric, Report, CONNECTIONS};
use crate::json::Json;
use crate::layers::{self, ReplayCounts, STAGE_SPANS};
use crate::load::{drive, Outcome, Pacing};
use crate::stats::{median, percentile};
use crate::trace::{totals, Total, Tracer};
use crate::verify::{score_sam, ReadShape, Score};
use crate::workloads::{self, Kind, PeShape, ServeShape, Spec};

type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Bundle loads timed for `core.bundle.load_ms` (median).
const LOAD_REPS: usize = 5;
/// Reads seeded again under the counting, cache-simulating sink.
const COUNTED_READS: usize = 2_048;
/// Pairs whose mate is aligned against its truth window for
/// `bsw.local.gcups`.
const LOCAL_SW_PAIRS: usize = 1_000;
/// Reads taken through the pipeline, untimed, before the timed passes.
const WARMUP_READS: usize = 2_048;
const MICRO_ITERATIONS: u64 = 4_000_000;
const FLOOR_SAMPLES: usize = 50;

/// The reads a traced run replays.
struct TraceReads {
    /// Single-end reads, with their truth shape.
    se: Vec<FastqRecord>,
    se_shape: Option<ReadShape>,
    /// Pairs (names trimmed of `/1`, `/2`), with their shape.
    pairs: Vec<ReadPair>,
    pe: Option<PeShape>,
}

impl TraceReads {
    /// Every read as a single-end read: the SE reads, then each pair's
    /// mates — what the paired pipeline aligns before it pairs.
    fn all(&self) -> Vec<FastqRecord> {
        let mates = self.pairs.iter().flat_map(|p| [p.r1.clone(), p.r2.clone()]);
        self.se.iter().cloned().chain(mates).collect()
    }
}

fn sam_lines(records: &[SamRecord]) -> String {
    records.iter().map(|r| r.to_line() + "\n").collect()
}

/// Ingest one FASTQ text the way its workload's reader would: inflate
/// first when the workload's files are gzipped.
fn ingest(
    tr: &mut Tracer,
    cfg: &Config,
    text: String,
    gzipped: bool,
    stem: &str,
) -> Res<Vec<FastqRecord>> {
    if !gzipped {
        return layers::parse_fastq(tr, text.as_bytes());
    }
    let plain = cfg.work.join(format!("{stem}.fastq"));
    std::fs::write(&plain, text)?;
    let gz = std::fs::read(workloads::gzip_file(&plain)?)?;
    let inflated = layers::inflate(tr, &gz)?;
    layers::parse_fastq(tr, &inflated)
}

fn trace_reads(
    tr: &mut Tracer,
    spec: &Spec,
    cfg: &Config,
    reference: &mem2_seqio::Reference,
) -> Res<TraceReads> {
    let units = cfg.scale().units(spec.trace_units_per_10s);
    match spec.kind {
        Kind::BatchSe(shape) => {
            let reads = workloads::se_reads(reference, &shape, units, cfg.seed);
            Ok(TraceReads {
                se: ingest(tr, cfg, write_fastq(&reads), false, "trace")?,
                se_shape: Some(shape.read_shape()),
                pairs: Vec::new(),
                pe: None,
            })
        }
        Kind::BatchPeGz(shape) => {
            let (r1, r2) = workloads::pe_reads(reference, &shape, units, cfg.seed);
            let r1 = ingest(tr, cfg, write_fastq(&r1), true, "trace_R1")?;
            let r2 = ingest(tr, cfg, write_fastq(&r2), true, "trace_R2")?;
            let interleaved = r1.into_iter().zip(r2).flat_map(|(a, b)| [a, b]).collect();
            Ok(TraceReads {
                se: Vec::new(),
                se_shape: None,
                pairs: pairs_from_interleaved(interleaved),
                pe: Some(shape),
            })
        }
        Kind::Serve(shape) => {
            // enough whole requests to cover the traced read count
            let per_request = shape
                .se_reads_per_request
                .max(2 * shape.pe_pairs_per_request);
            let requests =
                workloads::make_requests(&shape, reference, cfg.seed, units.div_ceil(per_request));
            let (mut se, mut pairs) = (Vec::new(), Vec::new());
            for req in &requests {
                let records = layers::parse_fastq(tr, &req.fastq)?;
                if req.paired {
                    pairs.extend(pairs_from_interleaved(records));
                } else {
                    se.extend(records);
                }
            }
            Ok(TraceReads {
                se,
                se_shape: Some(shape.se.read_shape()),
                pairs,
                pe: Some(shape.pe),
            })
        }
    }
}

/// Mates and the forward-strand reference window their fragment came
/// from, oriented so a local alignment finds the mate in the window.
fn local_sw_inputs(
    reference: &mem2_seqio::Reference,
    pairs: &[ReadPair],
) -> Vec<(Vec<u8>, Vec<u8>)> {
    pairs
        .iter()
        .take(LOCAL_SW_PAIRS)
        .filter_map(|p| {
            let t = PairTruth::decode(&p.r1.name)?;
            let codes: Vec<u8> = p.r2.seq.iter().map(|&b| encode_base(b)).collect();
            // R2 is the fragment's reverse-strand read unless the pair was swapped
            let query = if t.swapped {
                codes
            } else {
                revcomp_codes(&codes)
            };
            Some((query, reference.pac.fetch(t.pos, t.pos + t.insert)))
        })
        .collect()
}

/// What the paired-end part of a traced run measured.
struct PairingLayer {
    overhead_share: f64,
    pestat_us_per_batch: f64,
    proper_pair_share: f64,
    local_gcups: f64,
}

/// What the daemon part of a traced `serve_mix` run measured.
struct ServeTrace {
    floor_ms: f64,
    queue_wait_p50_ms: Option<f64>,
    queue_wait_p90_ms: Option<f64>,
    reads_per_slab: f64,
    retry_share: f64,
    latency_p50_ms: f64,
    latency_p95_ms: f64,
    latency_p99_ms: f64,
    wire_mb_per_s: f64,
    generator_lag_p95_ms: f64,
    score: Score,
}

fn trace_daemon(
    tr: &mut Tracer,
    shape: &ServeShape,
    cfg: &Config,
    reference: &mem2_seqio::Reference,
    idx: &Path,
) -> Res<ServeTrace> {
    let requests =
        workloads::make_requests(shape, reference, cfg.seed, e2e::open_requests(shape, cfg));
    let probe = e2e::one_read_request(&requests);
    let (daemon, _) = Daemon::start(cfg, shape, idx, &probe)?;
    let floor = layers::floor_latency(tr, &daemon.endpoint, &probe.fastq, FLOOR_SAMPLES)?;
    let before = daemon.stats()?;

    let phase = tr.begin("server.open_loop");
    let phase_start = tr.now_ns();
    let open = drive(
        &daemon.endpoint,
        &requests,
        Pacing::Open {
            rate_rps: shape.open_rate_rps,
        },
        CONNECTIONS,
    );
    for o in &open {
        tr.record(
            "server.request",
            phase_start + o.due_ns,
            phase_start + o.done_ns,
            requests[o.request].n_reads() as u64,
        );
    }
    tr.end(phase, open.len() as u64);
    let after = daemon.stats()?;
    daemon.stop()?;

    let delta = |key: &str| -> f64 {
        let at = |s: &Json| s.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        at(&after) - at(&before)
    };
    let wait_ms = |key: &str| {
        after
            .path(&["queue_wait", key])
            .and_then(Json::as_f64)
            .map(|us| us / 1e3)
    };
    let phase_s = open.iter().map(|o| o.done_ns).max().unwrap_or(1) as f64 / 1e9;
    let latencies: Vec<f64> = open.iter().map(Outcome::latency_ms).collect();
    let lags: Vec<f64> = open.iter().map(Outcome::generator_lag_ms).collect();
    let offered = delta("requests_admitted") + delta("requests_rejected");
    Ok(ServeTrace {
        floor_ms: median(&floor),
        queue_wait_p50_ms: wait_ms("p50_us"),
        queue_wait_p90_ms: wait_ms("p90_us"),
        reads_per_slab: delta("reads") / delta("slabs").max(1.0),
        retry_share: delta("requests_rejected") / offered.max(1.0),
        latency_p50_ms: median(&latencies),
        latency_p95_ms: percentile(&latencies, 95.0),
        latency_p99_ms: percentile(&latencies, 99.0),
        wire_mb_per_s: open.iter().map(|o| o.wire_bytes).sum::<u64>() as f64 / 1e6 / phase_s,
        generator_lag_p95_ms: percentile(&lags, 95.0),
        score: e2e::score_outcomes(&open, &requests, shape),
    })
}

fn optional(name: &'static str, unit: &'static str, value: Option<f64>) -> Metric {
    Metric { name, unit, value }
}

pub fn run_workload(spec: &Spec, cfg: &Config) -> Res<Report> {
    let mut tr = Tracer::new(true);
    let root = tr.begin("workload");

    // -- index: built and loaded the way `mem2 index` / `mem2 mem` do --
    let reference = workloads::make_reference(spec, cfg.seed, cfg.scale());
    let idx = cfg.work.join("ref.idx");
    layers::write_bundle(&idx, &layers::build_bundle(&mut tr, &reference)?)?;
    let mut loaded = layers::load_bundle(&mut tr, &idx)?;
    for _ in 1..LOAD_REPS {
        loaded = layers::load_bundle(&mut tr, &idx)?;
    }
    let tables_mb = layers::index_table_bytes(&loaded.1) as f64 / 1e6;
    let aligner = Aligner::with_index(loaded.1, loaded.0, MemOpts::default(), Workflow::Batched);
    let opts = &aligner.opts;

    // -- the reads, through the ingest layer --
    let reads = trace_reads(&mut tr, spec, cfg, &reference)?;
    let all = reads.all();
    let n_reads = all.len() as f64;

    // -- the real pipeline, then the same reads stage by stage, then the
    // stages again without a tracer --
    // page in the mapped index and warm the caches before anything is timed
    layers::pipeline(
        &mut tr,
        "warmup",
        &aligner,
        &all[..all.len().min(WARMUP_READS)],
    );
    let piped = layers::pipeline(&mut tr, "core.pipeline", &aligner, &all);
    let replayed = layers::replay(&mut tr, &aligner, &all);
    let untraced = Instant::now();
    let again = layers::replay(&mut Tracer::new(false), &aligner, &all);
    let untraced_s = untraced.elapsed().as_secs_f64();
    let piped_sam = sam_lines(&piped);
    let replay_agrees = piped_sam == sam_lines(&replayed.sam)
        && replayed.counts.sam_records == again.counts.sam_records;
    let counted = &all[..all.len().min(COUNTED_READS)];
    let seeding = layers::seeding_counters(&aligner, counted);

    // -- output check: single-end reads against their truth --
    let mut score = Score::default();
    if let Some(shape) = &reads.se_shape {
        // mates follow the single-end reads in the pipeline's output and
        // match none of these names, so they are passed over
        let names: Vec<&str> = reads.se.iter().map(|r| r.name.as_str()).collect();
        score.add(&score_sam(&piped_sam, &names, shape));
    }

    // -- paired-end layers --
    let mut pairing = None;
    if let Some(pe) = &reads.pe {
        // the daemon pins the insert distribution (`-I`); `mem2 mem` estimates it
        let pes = matches!(spec.kind, Kind::Serve(_))
            .then(|| PeStats::from_override(pe.insert_mean, pe.insert_std));
        let mates = &all[reads.se.len()..];
        layers::pipeline(&mut tr, "pairing.se_baseline", &aligner, mates);
        let paired = layers::pipeline_pairs(&mut tr, &aligner, &reads.pairs, pes);
        layers::pestat(
            &mut tr,
            opts,
            aligner.index.l_pac,
            &replayed.regions[reads.se.len()..],
        );
        let names: Vec<&str> = reads
            .pairs
            .iter()
            .flat_map(|p| [p.r1.name.as_str(), p.r2.name.as_str()])
            .collect();
        score.add(&score_sam(&sam_lines(&paired), &names, &pe.read_shape()));
        let primaries = paired.iter().filter(|r| r.flag & 0x900 == 0);
        let proper = primaries.clone().filter(|r| r.flag & 0x2 != 0).count();
        let sw_inputs = local_sw_inputs(&reference, &reads.pairs);
        layers::local_sw(&mut tr, &opts.score, &sw_inputs);
        let t = totals(tr.spans());
        let pairs_s = t["pairing.align_pairs"].dur_s();
        pairing = Some(PairingLayer {
            overhead_share: (pairs_s - t["pairing.se_baseline"].dur_s()) / pairs_s,
            pestat_us_per_batch: t["pairing.pestat"].dur_s() * 1e6
                / t["pairing.pestat"].count as f64,
            proper_pair_share: proper as f64 / primaries.count().max(1) as f64,
            local_gcups: t["bsw.local"].items as f64 / t["bsw.local"].dur_s() / 1e9,
        });
    }

    // -- kernels on their own --
    layers::counts4_loop(&mut tr, MICRO_ITERATIONS);
    layers::hist_record_loop(&mut tr, MICRO_ITERATIONS);

    // -- two threads, from outside: the timed job of the end-to-end run --
    let mut t2_reads_per_s = None;
    if !matches!(spec.kind, Kind::Serve(_)) {
        let inputs = e2e::batch_inputs(spec, cfg)?;
        let usage = e2e::mem_job(cfg, &idx, &cfg.work.join("out.sam"), &inputs.full)?;
        if !usage.success {
            return Err("mem2 mem -t 2 failed (see mem2.stderr.log)".into());
        }
        t2_reads_per_s = Some(inputs.set.n_reads() as f64 / usage.wall_s);
    }

    // -- the daemon, for the serving workload --
    let serve = match spec.kind {
        Kind::Serve(shape) => Some(trace_daemon(&mut tr, &shape, cfg, &reference, &idx)?),
        _ => None,
    };
    if let Some(s) = &serve {
        score.add(&s.score);
    }

    tr.end(root, all.len() as u64);
    let trace_path = Path::new(crate::OUT_DIR).join(format!("trace-{}.jsonl", spec.name));
    tr.write_jsonl(&trace_path, spec.name)?;

    // -- per-layer metrics from the spans and the counts --
    let t = totals(tr.spans());
    let span = |name: &str| t.get(name).copied().unwrap_or_default();
    let pipeline_s = span("core.pipeline").dur_s();
    let share = |name: &str| span(name).self_s() / pipeline_s;
    let per_read_us = |name: &str| span(name).self_s() * 1e6 / n_reads;
    let rate = |s: Total, scale: f64| (s.count > 0).then(|| s.items as f64 / scale / s.dur_s());
    let c: ReplayCounts = replayed.counts;
    let per_read = |count: u64| count as f64 / n_reads;
    let stage_s: f64 = STAGE_SPANS.iter().map(|name| span(name).dur_s()).sum();
    let load_ms: Vec<f64> = tr
        .spans()
        .iter()
        .filter(|s| s.name == "core.bundle.load")
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect();
    let lanes = mem2_simd::Backend::native().u8_lanes() as f64;
    let bsw_s = span("bsw.extend").self_s();
    let t1 = n_reads / pipeline_s;
    let counted_n = counted.len() as f64;
    let (parse, inflate) = (span("seqio.fastq.parse"), span("seqio.gzip.inflate"));
    let s = serve.as_ref();
    let p = pairing.as_ref();

    let metrics = vec![
        optional("seqio.fastq.parse_mb_per_s", "MB/s", rate(parse, 1e6)),
        metric(
            "seqio.ingest_share",
            "fraction",
            (parse.dur_s() + inflate.dur_s()) / pipeline_s,
        ),
        optional("seqio.gzip.inflate_mb_per_s", "MB/s", rate(inflate, 1e6)),
        optional(
            "suffix.sais.mbases_per_s",
            "Mbases/s",
            rate(span("suffix.sais"), 1e6),
        ),
        metric(
            "suffix.sais.share_of_build",
            "fraction",
            span("suffix.sais").dur_s() / span("fmindex.build").dur_s(),
        ),
        metric("suffix.bwt.busy_s", "s", span("suffix.bwt").self_s()),
        metric("fmindex.build.busy_s", "s", span("fmindex.build").self_s()),
        metric("fmindex.tables_mb", "MB", tables_mb),
        metric(
            "fmindex.smem.us_per_read",
            "us",
            per_read_us("fmindex.smem"),
        ),
        metric("fmindex.smem.share", "fraction", share("fmindex.smem")),
        metric(
            "fmindex.smem.intervals_per_read",
            "count",
            per_read(c.intervals),
        ),
        metric(
            "fmindex.smem.occ_loads_per_read",
            "count",
            seeding.loads as f64 / counted_n,
        ),
        metric(
            "fmindex.smem.sim_l2_miss_per_read",
            "count",
            (seeding.served[2] + seeding.served[3]) as f64 / counted_n,
        ),
        metric(
            "fmindex.sal.ns_per_lookup",
            "ns",
            span("fmindex.sal").self_s() * 1e9 / c.sal_lookups.max(1) as f64,
        ),
        metric("fmindex.sal.share", "fraction", share("fmindex.sal")),
        metric(
            "fmindex.sal.lookups_per_read",
            "count",
            per_read(c.sal_lookups),
        ),
        metric(
            "simd.counts4.ns_per_bucket",
            "ns",
            span("simd.counts4").dur_s() * 1e9 / MICRO_ITERATIONS as f64,
        ),
        metric("chain.us_per_read", "us", per_read_us("chain")),
        metric("chain.share", "fraction", share("chain")),
        metric("chain.seeds_per_read", "count", per_read(c.seeds)),
        metric(
            "chain.kept_share",
            "fraction",
            c.chains_kept as f64 / c.chains_built.max(1) as f64,
        ),
        metric(
            "core.extend.plan_us_per_read",
            "us",
            per_read_us("core.extend.plan"),
        ),
        metric(
            "bsw.extend.us_per_job",
            "us",
            bsw_s * 1e6 / c.bsw_jobs.max(1) as f64,
        ),
        metric("bsw.extend.share", "fraction", share("bsw.extend")),
        metric("bsw.extend.jobs_per_read", "count", per_read(c.bsw_jobs)),
        metric(
            "bsw.extend.cells_per_job",
            "count",
            c.cells.cells as f64 / c.bsw_jobs.max(1) as f64,
        ),
        metric(
            "bsw.extend.lane_occupancy",
            "fraction",
            c.cells.lane_rows as f64 / (c.cells.rows.max(1) as f64 * lanes),
        ),
        metric(
            "bsw.extend.gcups",
            "GCUPS",
            c.cells.cells as f64 / bsw_s / 1e9,
        ),
        optional("bsw.local.gcups", "GCUPS", p.map(|p| p.local_gcups)),
        metric("core.sam.us_per_read", "us", per_read_us("core.sam")),
        metric("core.sam.share", "fraction", share("core.sam")),
        metric("core.bundle.load_ms", "ms", median(&load_ms)),
        metric("core.pipeline.reads_per_s_t1", "reads/s", t1),
        optional(
            "core.threads.t2_efficiency",
            "fraction",
            t2_reads_per_s.map(|t2| t2 / (2.0 * t1)),
        ),
        optional(
            "pairing.overhead_share",
            "fraction",
            p.map(|p| p.overhead_share),
        ),
        optional(
            "pairing.pestat.us_per_batch",
            "us",
            p.map(|p| p.pestat_us_per_batch),
        ),
        optional(
            "pairing.proper_pair_share",
            "fraction",
            p.map(|p| p.proper_pair_share),
        ),
        optional("server.floor_latency_ms", "ms", s.map(|s| s.floor_ms)),
        optional(
            "server.queue_wait_ms_p50",
            "ms",
            s.and_then(|s| s.queue_wait_p50_ms),
        ),
        optional(
            "server.queue_wait_ms_p90",
            "ms",
            s.and_then(|s| s.queue_wait_p90_ms),
        ),
        optional(
            "server.reads_per_slab",
            "count",
            s.map(|s| s.reads_per_slab),
        ),
        optional("server.retry_share", "fraction", s.map(|s| s.retry_share)),
        optional(
            "server.open.latency_p50_ms",
            "ms",
            s.map(|s| s.latency_p50_ms),
        ),
        optional(
            "server.open.latency_p95_ms",
            "ms",
            s.map(|s| s.latency_p95_ms),
        ),
        optional(
            "server.open.latency_p99_ms",
            "ms",
            s.map(|s| s.latency_p99_ms),
        ),
        optional("server.wire_mb_per_s", "MB/s", s.map(|s| s.wire_mb_per_s)),
        optional(
            "server.open.generator_lag_ms_p95",
            "ms",
            s.map(|s| s.generator_lag_p95_ms),
        ),
        metric(
            "obs.hist.record_ns",
            "ns",
            span("obs.hist.record").dur_s() * 1e9 / MICRO_ITERATIONS as f64,
        ),
        metric("trace.coverage", "fraction", stage_s / pipeline_s),
        metric(
            "trace.overhead_share",
            "fraction",
            (span("replay").dur_s() - untraced_s) / untraced_s,
        ),
    ];

    let share_correct = score.mapped_correct_share();
    let mut warnings = Vec::new();
    if !replay_agrees {
        warnings.push("the stage-by-stage replay's SAM differs from the pipeline's".to_string());
    }
    if let Some(lag) = s.map(|s| s.generator_lag_p95_ms).filter(|&lag| lag > 1.0) {
        warnings.push(format!(
            "the open loop is void: the generator ran {lag:.2} ms late at p95"
        ));
    }
    warnings.extend(e2e::floor_warning(spec, share_correct));
    // in reads: the replayed ones plus, for the daemon, those it was sent
    // (a failed request counts all its reads as missing)
    Ok(Report {
        correct: replay_agrees && score.missing == 0 && share_correct >= spec.floor_correct,
        attempted: score.reads,
        failed: score.missing,
        metrics,
        info: vec![
            (
                "trace_file".into(),
                Json::str(trace_path.display().to_string()),
            ),
            ("spans".into(), Json::Int(tr.spans().len() as i64)),
            ("replayed_reads".into(), Json::Int(all.len() as i64)),
            ("counted_reads".into(), Json::Int(counted.len() as i64)),
            ("mapped_correct_share".into(), Json::Num(share_correct)),
            ("bsw_cells".into(), Json::Int(c.cells.cells as i64)),
            ("sal_lookups".into(), Json::Int(c.sal_lookups as i64)),
            ("occ_loads".into(), Json::Int(seeding.loads as i64)),
        ],
        warnings,
    })
}
