//! Chaos suite: the daemon under injected faults. The contract under
//! every fault class is the same — **zero lost or wrong requests**:
//! a request either completes with bytes identical to an offline
//! `mem2 mem` run of the same reads, or it fails loudly (ERR / closed
//! connection) having aligned nothing; and the daemon itself survives
//! to serve the next connection.
//!
//! Fault points are process-global ([`mem2_server::faultsim`]), so
//! every test here serializes on one mutex — cheap insurance against a
//! fault armed by one test leaking into another's server.

use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use mem2_core::bundle;
use mem2_core::{Aligner, MemOpts, SamRecord};
use mem2_seqio::{write_fastq, FastqRecord, GenomeSpec, ReadSim, ReadSimSpec};
use mem2_server::proto;
use mem2_server::{faultsim, serve, Client, Endpoint, Response, ServeConfig, ServerHandle};

/// Global serialization for fault-arming tests (see module docs).
static CHAOS: Mutex<()> = Mutex::new(());

fn chaos_lock() -> std::sync::MutexGuard<'static, ()> {
    let guard = CHAOS.lock().unwrap_or_else(|e| e.into_inner());
    faultsim::disarm_all();
    guard
}

fn reference_with_seed(seed: u64) -> mem2_seqio::Reference {
    GenomeSpec {
        len: 120_000,
        seed,
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

fn start_server(
    reference: &mem2_seqio::Reference,
    tweak: impl FnOnce(&mut ServeConfig),
) -> (ServerHandle, Endpoint) {
    let aligner = Aligner::build(reference.clone(), MemOpts::default());
    let mut config = ServeConfig {
        endpoint: Endpoint::Tcp("127.0.0.1:0".into()),
        threads: 2,
        ..ServeConfig::default()
    };
    tweak(&mut config);
    let handle = serve(aligner, config).expect("bind test server");
    let endpoint = handle.endpoint().clone();
    (handle, endpoint)
}

fn tcp_addr(endpoint: &Endpoint) -> String {
    match endpoint {
        Endpoint::Tcp(a) => a.clone(),
        #[cfg(unix)]
        other => panic!("expected tcp endpoint, got {other}"),
    }
}

/// A slab panic answers its request with ERR, increments the panic
/// counter, and leaves the daemon fully serviceable: the next
/// connection gets offline-identical bytes.
#[test]
fn slab_panic_is_isolated_to_its_request() {
    let _guard = chaos_lock();
    let reference = reference_with_seed(7);
    let offline = Aligner::build(reference.clone(), MemOpts::default());
    let (handle, endpoint) = start_server(&reference, |c| c.threads = 1);

    let reads = sim_reads(&reference, 30, 41);
    let fastq = write_fastq(&reads);
    let expected = records_to_text(&offline.align_reads(&reads));

    // poison exactly one slab
    faultsim::arm(faultsim::SLAB_PANIC, 1, 0);
    let mut doomed = Client::connect(&endpoint).expect("connect");
    let err = doomed
        .align(fastq.as_bytes())
        .expect_err("poisoned slab must answer ERR");
    let msg = err.to_string();
    assert!(
        msg.contains("alignment failed") && msg.contains("injected slab panic"),
        "ERR should carry the panic message, got: {msg}"
    );

    // the daemon survives and the very next request is byte-perfect
    let mut healthy = Client::connect(&endpoint).expect("daemon must survive a slab panic");
    let (sam, n_reads, _) = healthy
        .align_with_retry(fastq.as_bytes(), 50)
        .expect("align after panic");
    assert_eq!(n_reads, 30);
    assert_eq!(sam, expected, "post-panic alignment must be unaffected");

    let stats = healthy.stats().expect("stats");
    assert!(
        stats.contains("\"slab_panics\": 1"),
        "stats must count the panic: {stats}"
    );

    healthy.shutdown().expect("shutdown");
    handle.join();
}

/// `--request-timeout`: a request stuck behind a wedged slab answers
/// ERR when its deadline expires instead of holding the connection
/// hostage, and the daemon keeps serving once the slab clears.
#[test]
fn request_deadline_frees_the_connection() {
    let _guard = chaos_lock();
    let reference = reference_with_seed(7);
    let (handle, endpoint) = start_server(&reference, |c| {
        c.threads = 1;
        c.request_timeout = Some(Duration::from_millis(150));
    });

    let reads = sim_reads(&reference, 20, 55);
    let fastq = write_fastq(&reads);

    // wedge the only worker for far longer than the deadline
    faultsim::arm(faultsim::SLAB_DELAY_MS, 1, 2_000);
    let mut stuck = Client::connect(&endpoint).expect("connect");
    let err = stuck
        .align(fastq.as_bytes())
        .expect_err("deadline must fire");
    assert!(
        err.to_string().contains("request deadline exceeded"),
        "got: {err}"
    );

    // once the wedged slab clears, service resumes (the wedge holds
    // the only worker for 2 s; a request sent before that would expire
    // behind it too, which is exactly the deadline's contract)
    std::thread::sleep(Duration::from_millis(2_200));
    let mut healthy = Client::connect(&endpoint).expect("daemon must survive");
    let (_, n_reads, _) = healthy
        .align_with_retry(fastq.as_bytes(), 50)
        .expect("align after deadline");
    assert_eq!(n_reads, 20);
    let stats = healthy.stats().expect("stats");
    assert!(
        !stats.contains("\"deadlines_expired\": 0,"),
        "stats must count the expiry: {stats}"
    );

    healthy.shutdown().expect("shutdown");
    handle.join();
}

/// A client that dies mid-DATA (frame header promising bytes that never
/// arrive) is detected immediately, its slot freed, and concurrent
/// connections are untouched.
#[test]
fn client_disconnect_mid_data_frees_the_slot() {
    let _guard = chaos_lock();
    let reference = reference_with_seed(7);
    let offline = Aligner::build(reference.clone(), MemOpts::default());
    let (handle, endpoint) = start_server(&reference, |c| c.threads = 2);
    let addr = tcp_addr(&endpoint);

    // raw socket: handshake, then a DATA header promising 4096 bytes,
    // deliver 10, vanish
    {
        let mut raw = std::net::TcpStream::connect(&addr).expect("raw connect");
        raw.write_all(b"M2SV\x01").expect("magic");
        let mut header = [0u8; 5];
        header[0] = proto::DATA;
        header[1..5].copy_from_slice(&4096u32.to_le_bytes());
        raw.write_all(&header).expect("torn header");
        raw.write_all(b"@r1\nACGTAC\n").expect("fragment");
        raw.flush().expect("flush");
        // drop: RST/EOF mid-frame on the server side
    }

    // a well-behaved concurrent client is unaffected
    let reads = sim_reads(&reference, 25, 77);
    let fastq = write_fastq(&reads);
    let expected = records_to_text(&offline.align_reads(&reads));
    let mut client = Client::connect(&endpoint).expect("connect");
    let (sam, _, _) = client
        .align_with_retry(fastq.as_bytes(), 50)
        .expect("align");
    assert_eq!(sam, expected, "other connections must be unaffected");

    // the dead connection's slot is released (only our stats client
    // remains); poll briefly — teardown is asynchronous
    let mut freed = false;
    for _ in 0..100 {
        let stats = client.stats().expect("stats");
        if stats.contains("\"active_connections\": 1,") {
            freed = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(freed, "mid-DATA disconnect must free its connection slot");

    client.shutdown().expect("shutdown");
    handle.join();
}

/// A client that dies mid-response (after END, without reading SAM)
/// must not take the daemon or its workers down.
#[test]
fn client_disconnect_mid_sam_is_survivable() {
    let _guard = chaos_lock();
    let reference = reference_with_seed(7);
    let (handle, endpoint) = start_server(&reference, |c| c.threads = 1);
    let addr = tcp_addr(&endpoint);

    let reads = sim_reads(&reference, 40, 88);
    let fastq = write_fastq(&reads);

    // delay the slab so the socket is certainly gone before the daemon
    // writes SAM back
    faultsim::arm(faultsim::SLAB_DELAY_MS, 1, 300);
    {
        let mut raw = std::net::TcpStream::connect(&addr).expect("raw connect");
        raw.write_all(b"M2SV\x01").expect("magic");
        let mut header = [0u8; 5];
        header[0] = proto::DATA;
        header[1..5].copy_from_slice(&(fastq.len() as u32).to_le_bytes());
        raw.write_all(&header).expect("data header");
        raw.write_all(fastq.as_bytes()).expect("data");
        raw.write_all(&[proto::END, 0, 0, 0, 0]).expect("end");
        raw.flush().expect("flush");
        // drop without reading HELLO or the response
    }
    std::thread::sleep(Duration::from_millis(600)); // let the slab run into the dead socket

    let mut client = Client::connect(&endpoint).expect("daemon must survive mid-SAM hangup");
    let (_, n_reads, _) = client
        .align_with_retry(fastq.as_bytes(), 50)
        .expect("align after hangup");
    assert_eq!(n_reads, 40);

    client.shutdown().expect("shutdown");
    handle.join();
}

/// Server-side frames reassemble correctly from arbitrarily small read
/// fragments: with every `read()` capped to 3 bytes the served SAM is
/// still byte-identical to offline.
#[test]
fn short_reads_reassemble_byte_identically() {
    let _guard = chaos_lock();
    let reference = reference_with_seed(7);
    let offline = Aligner::build(reference.clone(), MemOpts::default());
    let (handle, endpoint) = start_server(&reference, |c| c.threads = 1);

    let reads = sim_reads(&reference, 20, 99);
    let fastq = write_fastq(&reads);
    let expected = records_to_text(&offline.align_reads(&reads));

    faultsim::arm(faultsim::SHORT_READ, u64::MAX / 2, 3);
    let mut client = Client::connect(&endpoint).expect("connect");
    let (sam, _, _) = client
        .align_with_retry(fastq.as_bytes(), 50)
        .expect("align under short reads");
    faultsim::disarm_all();
    assert_eq!(sam, expected, "fragmented reads must reassemble exactly");

    client.shutdown().expect("shutdown");
    handle.join();
}

/// RETRY backoff hints under a flood stay inside the decorrelated-jitter
/// envelope `[base, base*32]` — never zero, never unbounded.
#[test]
fn retry_hints_stay_in_jitter_envelope() {
    let _guard = chaos_lock();
    let reference = reference_with_seed(7);
    let (handle, endpoint) = start_server(&reference, |c| {
        c.threads = 1;
        c.queue_cap = 1;
        c.retry_ms = 5;
    });

    let reads = sim_reads(&reference, 60, 13);
    let fastq = write_fastq(&reads);

    let mut joins = Vec::new();
    let saw_retry = Arc::new(AtomicBool::new(false));
    for _ in 0..6 {
        let endpoint = endpoint.clone();
        let fastq = fastq.clone();
        let saw_retry = Arc::clone(&saw_retry);
        joins.push(std::thread::spawn(move || {
            let mut client = Client::connect(&endpoint).expect("connect");
            for _ in 0..4 {
                loop {
                    match client.align(fastq.as_bytes()).expect("align turn") {
                        Response::Aligned { .. } => break,
                        Response::Retry { after } => {
                            saw_retry.store(true, Ordering::Relaxed);
                            assert!(
                                after >= Duration::from_millis(5),
                                "hint below base: {after:?}"
                            );
                            assert!(
                                after <= Duration::from_millis(5 * 32),
                                "hint above cap: {after:?}"
                            );
                            std::thread::sleep(after.min(mem2_server::MAX_HONORED_BACKOFF));
                        }
                    }
                }
            }
        }));
    }
    for j in joins {
        j.join().expect("client thread");
    }
    assert!(
        saw_retry.load(Ordering::Relaxed),
        "a 1-deep queue under 6 floods must emit RETRY"
    );

    let mut client = Client::connect(&endpoint).expect("connect");
    client.shutdown().expect("shutdown");
    handle.join();
}

/// Hot-swap under concurrent load: every response is byte-identical to
/// the offline truth of **whichever epoch answered it**, traffic flows
/// through the swap without interruption, and both epochs actually
/// answered requests.
#[test]
fn hot_swap_serves_both_epochs_byte_identically() {
    let _guard = chaos_lock();
    let ref_a = reference_with_seed(7);
    let ref_b = reference_with_seed(8);

    // the replacement bundle the daemon will RELOAD
    let dir = std::env::temp_dir().join(format!("mem2_chaos_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let bundle_b = dir.join("b.idx");
    let bytes_b = bundle::build_bundle(&ref_b).expect("bundle B");
    bundle::write_bundle_atomic(&bundle_b, &bytes_b).expect("write bundle B");

    let offline_a = Aligner::build(ref_a.clone(), MemOpts::default());
    let offline_b = Aligner::build(ref_b.clone(), MemOpts::default());
    let reads = sim_reads(&ref_a, 25, 1234);
    let fastq = write_fastq(&reads);
    let expected_a = records_to_text(&offline_a.align_reads(&reads));
    let expected_b = records_to_text(&offline_b.align_reads(&reads));
    assert_ne!(
        expected_a, expected_b,
        "fixtures must disagree or the test proves nothing"
    );

    let (handle, endpoint) = start_server(&ref_a, |_| {});

    // background traffic across the swap; every response checked
    // against its own epoch's truth
    let stop = Arc::new(AtomicBool::new(false));
    let mut joins = Vec::new();
    for _ in 0..3 {
        let endpoint = endpoint.clone();
        let fastq = fastq.clone();
        let (expected_a, expected_b) = (expected_a.clone(), expected_b.clone());
        let stop = Arc::clone(&stop);
        joins.push(std::thread::spawn(move || {
            let mut epochs_seen = [false; 2];
            let mut client = Client::connect(&endpoint).expect("connect");
            while !stop.load(Ordering::Relaxed) {
                match client.align(fastq.as_bytes()).expect("align") {
                    Response::Aligned { sam, epoch, .. } => {
                        let want = match epoch {
                            1 => &expected_a,
                            2 => &expected_b,
                            other => panic!("unexpected epoch {other}"),
                        };
                        assert_eq!(
                            &sam, want,
                            "epoch {epoch} response must match that epoch's offline bytes"
                        );
                        epochs_seen[(epoch - 1) as usize] = true;
                    }
                    Response::Retry { after } => {
                        std::thread::sleep(after.min(mem2_server::MAX_HONORED_BACKOFF))
                    }
                }
            }
            epochs_seen
        }));
    }

    // make sure epoch 1 answered some traffic, then swap mid-flight
    std::thread::sleep(Duration::from_millis(300));
    let mut control = Client::connect(&endpoint).expect("connect control");
    let epoch = control
        .reload(bundle_b.to_str().expect("utf8 path"))
        .expect("hot swap");
    assert_eq!(epoch, 2);
    std::thread::sleep(Duration::from_millis(300));
    stop.store(true, Ordering::Relaxed);

    let mut seen = [false; 2];
    for j in joins {
        let epochs = j.join().expect("traffic thread");
        seen[0] |= epochs[0];
        seen[1] |= epochs[1];
    }
    assert!(seen[0], "no request was answered by epoch 1");
    assert!(seen[1], "no request was answered by epoch 2");

    let stats = control.stats().expect("stats");
    assert!(stats.contains("\"epoch\": 2"), "{stats}");
    assert!(stats.contains("\"swaps\": 1"), "{stats}");

    control.shutdown().expect("shutdown");
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A corrupt replacement bundle is rejected at RELOAD — the error names
/// the CRC failure, the old index keeps serving identical bytes, and
/// the failure is counted.
#[test]
fn corrupt_reload_is_rejected_and_old_index_survives() {
    let _guard = chaos_lock();
    let ref_a = reference_with_seed(7);
    let ref_b = reference_with_seed(8);

    let dir = std::env::temp_dir().join(format!("mem2_chaos_bad_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let bundle_bad = dir.join("bad.idx");
    let mut bytes = bundle::build_bundle(&ref_b).expect("bundle B");
    let flip = bytes.len() / 2;
    bytes[flip] ^= 0x40; // corrupt one byte somewhere in a big section
    std::fs::write(&bundle_bad, &bytes).expect("write corrupt bundle");

    let offline_a = Aligner::build(ref_a.clone(), MemOpts::default());
    let reads = sim_reads(&ref_a, 20, 4321);
    let fastq = write_fastq(&reads);
    let expected_a = records_to_text(&offline_a.align_reads(&reads));

    let (handle, endpoint) = start_server(&ref_a, |_| {});

    let mut control = Client::connect(&endpoint).expect("connect");
    let err = control
        .reload(bundle_bad.to_str().expect("utf8 path"))
        .expect_err("corrupt bundle must be rejected");
    assert!(
        err.to_string().contains("failed CRC32 verification"),
        "rejection must name the checksum failure: {err}"
    );

    // the old index is untouched: same epoch, same bytes
    let mut client = Client::connect(&endpoint).expect("connect");
    match client.align(fastq.as_bytes()).expect("align") {
        Response::Aligned { sam, epoch, .. } => {
            assert_eq!(epoch, 1, "failed reload must not advance the epoch");
            assert_eq!(sam, expected_a, "old index must serve unchanged bytes");
        }
        Response::Retry { .. } => panic!("unexpected retry on an idle daemon"),
    }
    let stats = client.stats().expect("stats");
    assert!(stats.contains("\"swap_failures\": 1"), "{stats}");
    assert!(stats.contains("\"swaps\": 0"), "{stats}");

    client.shutdown().expect("shutdown");
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}
