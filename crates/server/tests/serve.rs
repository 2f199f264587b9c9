//! End-to-end daemon tests: the serve path must produce, for every
//! request, byte-for-byte the SAM an offline `mem2 mem` run would —
//! regardless of which other clients' reads shared its alignment slab —
//! and backpressure must reject whole requests recoverably.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use mem2_core::{Aligner, MemOpts, SamRecord};
use mem2_pairing::{align_pairs, align_pairs_stream, pairs_from_interleaved};
use mem2_seqio::{
    write_fastq, FastqRecord, GenomeSpec, PairSim, PairSimSpec, ReadSim, ReadSimSpec,
};
use mem2_server::{serve, Client, Endpoint, Response, ServeConfig, ServerHandle};

fn test_reference() -> mem2_seqio::Reference {
    GenomeSpec {
        len: 120_000,
        seed: 7,
        ..GenomeSpec::default()
    }
    .generate_reference("chrT")
}

fn sim_reads(reference: &mem2_seqio::Reference, n: usize, seed: u64) -> Vec<FastqRecord> {
    ReadSim::new(
        reference,
        ReadSimSpec {
            n_reads: n,
            read_len: 101,
            seed,
            ..ReadSimSpec::default()
        },
    )
    .generate()
    .into_iter()
    .map(|s| s.record)
    .collect()
}

fn records_to_text(records: &[SamRecord]) -> String {
    let mut s = String::new();
    for r in records {
        s.push_str(&r.to_line());
        s.push('\n');
    }
    s
}

fn start_test_server(config_tweak: impl FnOnce(&mut ServeConfig)) -> (ServerHandle, Endpoint) {
    let aligner = Aligner::build(test_reference(), MemOpts::default());
    let mut config = ServeConfig {
        // TCP loopback: portable and collision-free via port 0
        endpoint: Endpoint::Tcp("127.0.0.1:0".into()),
        threads: 2,
        ..ServeConfig::default()
    };
    config_tweak(&mut config);
    let handle = serve(aligner, config).expect("bind test server");
    let endpoint = handle.endpoint().clone();
    (handle, endpoint)
}

/// Many concurrent clients, each with its own small request; per-request
/// SAM must be byte-identical to an offline single-process alignment of
/// the same reads, no matter how requests were coalesced into slabs.
/// Covers default-opts SE traffic, an overridden-opts client (separate
/// slab fingerprint), and a paired-end client, all in flight at once.
#[test]
fn concurrent_clients_get_offline_identical_sam() {
    let reference = test_reference();
    let offline = Aligner::build(reference.clone(), MemOpts::default());

    // 8 default-opts SE clients
    let per_client: Vec<Vec<FastqRecord>> =
        (0..8).map(|i| sim_reads(&reference, 25, 100 + i)).collect();
    let expected: Vec<String> = per_client
        .iter()
        .map(|reads| records_to_text(&offline.align_reads(reads)))
        .collect();

    // one client overriding scoring opts (distinct slab fingerprint)
    let strict_reads = sim_reads(&reference, 25, 900);
    let strict_opts = MemOpts {
        t_min_score: 55,
        ..MemOpts::default()
    };
    let strict_offline = Aligner::build(reference.clone(), strict_opts);
    let strict_expected = records_to_text(&strict_offline.align_reads(&strict_reads));

    // one paired-end client (interleaved)
    let pairs = PairSim::new(
        &reference,
        PairSimSpec {
            n_pairs: 15,
            read_len: 101,
            insert_mean: 400.0,
            insert_std: 30.0,
            seed: 901,
            ..PairSimSpec::default()
        },
    )
    .generate();
    let mut interleaved = String::new();
    let mut pe_records = Vec::new();
    for p in pairs {
        interleaved.push_str(&write_fastq(std::slice::from_ref(&p.r1)));
        interleaved.push_str(&write_fastq(std::slice::from_ref(&p.r2)));
        pe_records.push(p.r1);
        pe_records.push(p.r2);
    }
    // same pairing entry point the daemon uses (it trims /1 /2 suffixes)
    let pe_pairs = pairs_from_interleaved(pe_records);
    let pe_expected = records_to_text(&align_pairs(&offline, &pe_pairs, None));

    // the coalescing budget (the default `batch_reads`, 512) is bigger
    // than any one request: requests share slabs
    let (handle, endpoint) = start_test_server(|c| c.threads = 3);
    let offline_header = offline.sam_header();

    let mut joins = Vec::new();
    for (reads, want) in per_client.iter().zip(&expected) {
        let fastq = write_fastq(reads);
        let want = want.clone();
        let endpoint = endpoint.clone();
        joins.push(std::thread::spawn(move || {
            let mut client = Client::connect(&endpoint).expect("connect");
            let (sam, n_reads, _) = client
                .align_with_retry(fastq.as_bytes(), 50)
                .expect("align");
            assert_eq!(n_reads, 25);
            assert_eq!(sam, want, "served SAM differs from offline alignment");
        }));
    }
    {
        let fastq = write_fastq(&strict_reads);
        let endpoint = endpoint.clone();
        let want = strict_expected.clone();
        joins.push(std::thread::spawn(move || {
            let mut client = Client::connect(&endpoint).expect("connect");
            client.set_opts("min_score=55").expect("set_opts");
            let (sam, _, _) = client
                .align_with_retry(fastq.as_bytes(), 50)
                .expect("align");
            assert_eq!(sam, want, "per-request opts must not leak across slabs");
        }));
    }
    {
        let endpoint = endpoint.clone();
        let want = pe_expected.clone();
        joins.push(std::thread::spawn(move || {
            let mut client = Client::connect(&endpoint).expect("connect");
            client.set_opts("mode=pe").expect("set_opts");
            let (sam, n_reads, _) = client
                .align_with_retry(interleaved.as_bytes(), 50)
                .expect("align");
            assert_eq!(n_reads, 30);
            assert_eq!(sam, want, "served PE SAM differs from offline pairing");
        }));
    }
    for j in joins {
        j.join().expect("client thread");
    }

    // the daemon's header matches the offline one, and STATS reflects
    // the traffic
    let mut client = Client::connect(&endpoint).expect("connect");
    assert_eq!(client.sam_header(), offline_header);
    let stats = client.stats().expect("stats");
    for field in [
        "\"queue_depth\"",
        "\"requests_admitted\"",
        "\"reads\"",
        "\"slabs\"",
    ] {
        assert!(stats.contains(field), "stats missing {field}: {stats}");
    }

    // graceful drain via the protocol; afterwards the endpoint is gone
    client.shutdown().expect("shutdown ack");
    handle.join();
    assert!(
        Client::connect(&endpoint).is_err(),
        "drained daemon must not accept connections"
    );
}

/// A paired-end request spanning several insert-size windows, each cut
/// into several slabs, is served with exactly the bytes the multi-threaded
/// streaming driver writes for the same pairs: the daemon's one-member
/// team runs the same window driver as `mem2 mem -t 3`.
#[test]
fn multi_window_pe_request_matches_the_streaming_driver() {
    let reference = test_reference();
    // 24-pair windows (enough for an insert estimate) of 8-pair slabs:
    // 72 pairs are 3 windows of 3 slabs
    let opts = MemOpts {
        batch_pairs: 24,
        batch_reads: 16,
        ..MemOpts::default()
    };
    let aligner = Aligner::build(reference.clone(), opts);
    let records: Vec<FastqRecord> = PairSim::new(
        &reference,
        PairSimSpec {
            n_pairs: 72,
            read_len: 101,
            insert_mean: 400.0,
            insert_std: 30.0,
            // degraded mates: some are only placed by rescue
            r2_sub_rate: Some(0.08),
            seed: 902,
            ..PairSimSpec::default()
        },
    )
    .generate()
    .into_iter()
    .flat_map(|p| [p.r1, p.r2])
    .collect();
    let interleaved = write_fastq(&records);
    let pairs = pairs_from_interleaved(records);
    let mut streamed = Vec::new();
    let windows = pairs.chunks(opts.batch_pairs).map(|w| Ok(w.to_vec()));
    let (summary, _) =
        align_pairs_stream(&aligner, None, windows, 3, &mut streamed).expect("stream");
    assert_eq!(summary.batches, 3);

    let handle = serve(
        aligner,
        ServeConfig {
            endpoint: Endpoint::Tcp("127.0.0.1:0".into()),
            threads: 2,
            ..ServeConfig::default()
        },
    )
    .expect("bind test server");
    let mut client = Client::connect(handle.endpoint()).expect("connect");
    client.set_opts("mode=pe").expect("set_opts");
    let (sam, n_reads, _) = client
        .align_with_retry(interleaved.as_bytes(), 50)
        .expect("align");
    assert_eq!(n_reads, 144);
    assert_eq!(
        sam,
        String::from_utf8(streamed).expect("utf8"),
        "served PE SAM differs from the streaming driver"
    );
    client.shutdown().expect("shutdown");
    handle.join();
}

/// A tiny queue bound under a flood must (a) surface RETRY frames and
/// (b) lose nothing: every request eventually completes with bytes
/// identical to the offline run.
#[test]
fn backpressure_rejects_whole_requests_then_recovers() {
    let reference = test_reference();
    let offline = Aligner::build(reference.clone(), MemOpts::default());

    let (handle, endpoint) = start_test_server(|c| {
        c.threads = 1;
        // one-in-flight admission: floods must bounce, and a worker
        // finds the queue empty once it pops a request, so nothing
        // coalesces
        c.queue_cap = 1;
        c.retry_ms = 5;
    });

    // precompute every request's offline truth BEFORE spawning any
    // client, so all six actually flood the daemon concurrently
    let per_thread: Vec<Vec<(String, String)>> = (0..6u64)
        .map(|t| {
            (0..4)
                .map(|r| {
                    let reads = sim_reads(&reference, 60, 7_000 + 10 * t + r);
                    (
                        write_fastq(&reads),
                        records_to_text(&offline.align_reads(&reads)),
                    )
                })
                .collect()
        })
        .collect();

    let retries_seen = Arc::new(AtomicU64::new(0));
    let mut joins = Vec::new();
    for expected in per_thread {
        let endpoint = endpoint.clone();
        let retries_seen = Arc::clone(&retries_seen);
        joins.push(std::thread::spawn(move || {
            let mut client = Client::connect(&endpoint).expect("connect");
            for (fastq, want) in expected {
                // hand-rolled retry loop so rejections are observable
                let sam = loop {
                    match client.align(fastq.as_bytes()).expect("align turn") {
                        Response::Aligned { sam, .. } => break sam,
                        Response::Retry { after } => {
                            retries_seen.fetch_add(1, Ordering::Relaxed);
                            assert!(after >= Duration::from_millis(1));
                            std::thread::sleep(after);
                        }
                    }
                };
                assert_eq!(sam, want, "a retried request must lose nothing");
            }
        }));
    }
    for j in joins {
        j.join().expect("client thread");
    }
    let mut client = Client::connect(&endpoint).expect("connect");
    let stats = client.stats().expect("stats");
    assert!(
        retries_seen.load(Ordering::Relaxed) > 0,
        "a 1-deep queue under 6 flooding clients must reject at least once; stats: {stats}"
    );
    assert!(
        !stats.contains("\"requests_rejected\": 0,"),
        "stats should count the rejections: {stats}"
    );
    client.shutdown().expect("shutdown");
    handle.join();
}

/// Minimal HTTP/1.1 GET against the metrics endpoint; returns the full
/// response (status line + headers + body).
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    use std::io::{Read, Write};
    let mut conn = std::net::TcpStream::connect(addr).expect("connect metrics");
    conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write!(
        conn,
        "GET {path} HTTP/1.1\r\nHost: mem2\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut response = String::new();
    conn.read_to_string(&mut response).expect("read response");
    response
}

/// `--metrics-addr` serves live Prometheus text: traffic counters,
/// per-stage latency histograms (p99 derivable from cumulative
/// buckets), and an RSS gauge — and STATS v2 distinguishes "no data"
/// (null) from a measured zero.
#[test]
fn metrics_endpoint_reflects_traffic() {
    let reference = test_reference();
    let (handle, endpoint) = start_test_server(|c| {
        c.metrics_addr = Some("127.0.0.1:0".into());
    });
    let addr = handle.metrics_addr().expect("metrics listener bound");

    // before any traffic: latency summaries must be null, not 0 ms
    let mut client = Client::connect(&endpoint).expect("connect");
    let stats0 = client.stats().expect("stats");
    assert!(
        stats0.contains("\"queue_wait\": {\"count\": 0, \"mean_ms\": null"),
        "empty daemon must report null latencies, not zeros: {stats0}"
    );
    assert!(stats0.contains("\"p99_us\": null"), "{stats0}");

    let reads = sim_reads(&reference, 40, 31);
    let fastq = write_fastq(&reads);
    let (_, n_reads, _) = client
        .align_with_retry(fastq.as_bytes(), 50)
        .expect("align");
    assert_eq!(n_reads, 40);

    let response = http_get(addr, "/metrics");
    assert!(
        response.starts_with("HTTP/1.1 200 OK\r\n"),
        "bad status: {response}"
    );
    assert!(
        response.contains("Content-Type: text/plain; version=0.0.4"),
        "bad content type: {response}"
    );
    let body = response
        .split_once("\r\n\r\n")
        .expect("header/body split")
        .1;

    // counters reflect the 40-read request
    assert!(body.contains("mem2_requests_admitted_total 1"), "{body}");
    assert!(body.contains("mem2_reads_total 40"), "{body}");

    // stage histograms: every stage series present, with the cumulative
    // buckets + count + sum a scraper needs to derive p99
    for stage in ["SMEM", "CHAIN", "BSW", "SAM-FORM"] {
        assert!(
            body.contains(&format!(
                "mem2_stage_duration_seconds_bucket{{stage=\"{stage}\",le=\"+Inf\"}}"
            )),
            "missing +Inf bucket for {stage}: {body}"
        );
        assert!(
            body.contains(&format!(
                "mem2_stage_duration_seconds_count{{stage=\"{stage}\"}}"
            )),
            "missing count for {stage}: {body}"
        );
    }
    // queue-wait and service histograms recorded the one submission
    assert!(
        body.contains("mem2_queue_wait_seconds_count 1"),
        "queue wait histogram must count the submission: {body}"
    );
    assert!(body.contains("mem2_slab_service_seconds_count 1"), "{body}");
    // process gauges come from /proc on Linux
    if cfg!(target_os = "linux") {
        assert!(
            body.contains("mem2_process_resident_memory_bytes "),
            "missing RSS gauge: {body}"
        );
    }

    // unknown paths 404 without killing the endpoint
    let response = http_get(addr, "/nope");
    assert!(response.starts_with("HTTP/1.1 404"), "{response}");
    assert!(
        http_get(addr, "/metrics").contains("mem2_reads_total"),
        "endpoint must survive a 404"
    );

    // STATS v2 carries real percentiles; the retired v1 flat keys are
    // gone
    let stats = client.stats().expect("stats");
    assert!(
        stats.contains("\"service\": {\"count\": 1, \"mean_ms\": "),
        "{stats}"
    );
    assert!(
        stats.contains("\"stages\": {\"SMEM\": {\"total_ms\": "),
        "{stats}"
    );
    for v1 in [
        "avg_requests_per_slab",
        "avg_reads_per_slab",
        "avg_queue_wait_ms",
        "avg_service_ms",
        "stage_ms",
    ] {
        assert!(
            !stats.contains(&format!("\"{v1}\"")),
            "v1 key {v1} still present: {stats}"
        );
    }
    assert!(
        !stats.contains("\"mean_ms\": null, \"p50_us\": null}}, \"service\""),
        "queue_wait must have data after traffic: {stats}"
    );

    client.shutdown().expect("shutdown");
    handle.join();
    // the shared shutdown flag tears the metrics listener down too
    assert!(
        std::net::TcpStream::connect(addr).is_err(),
        "metrics endpoint must close on drain"
    );
}
