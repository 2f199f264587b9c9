//! Streaming driver invariants: `align_stream_parallel` must emit the
//! exact same SAM byte stream as the in-memory driver, for any batch
//! partition (1 read, 1 KiB of bases, default), any slab partition of a
//! batch, any thread count, and for gzipped input — the "identical
//! output" guarantee extended to the chunked ingestion path — while
//! keeping at most three batches resident.

use std::io::{Read, Write};
use std::sync::atomic::{AtomicUsize, Ordering};

use mem2_core::{
    align_reads_parallel, align_stream_parallel, classic, Aligner, MemOpts, StreamError, Workflow,
};
use mem2_fmindex::{BuildOpts, FmIndex};
use mem2_seqio::{
    gzip_compress_stored, write_fastq, AutoReader, BatchReader, FastqRecord, GenomeSpec, ReadSim,
    ReadSimSpec, SeqIoError,
};

fn fixture() -> (Aligner, Vec<FastqRecord>) {
    fixture_with(MemOpts::default())
}

fn fixture_with(opts: MemOpts) -> (Aligner, Vec<FastqRecord>) {
    let reference = GenomeSpec {
        len: 60_000,
        seed: 0xBEEF,
        ..GenomeSpec::default()
    }
    .generate_reference("chrS");
    let reads: Vec<FastqRecord> = ReadSim::new(
        &reference,
        ReadSimSpec {
            n_reads: 120,
            read_len: 101,
            seed: 0xF00D,
            ..ReadSimSpec::default()
        },
    )
    .generate()
    .into_iter()
    .map(|s| s.record)
    .collect();
    // dual-layout index so the same fixture also serves the classic oracle
    let index = FmIndex::build(&reference, &BuildOpts::default());
    let aligner = Aligner::with_index(index, reference, opts, Workflow::Batched);
    (aligner, reads)
}

fn sam_bytes_in_memory(aligner: &Aligner, reads: &[FastqRecord], threads: usize) -> Vec<u8> {
    sam_bytes(&align_reads_parallel(aligner, reads, threads).0)
}

fn sam_bytes(records: &[mem2_core::SamRecord]) -> Vec<u8> {
    let mut out = Vec::new();
    for r in records {
        out.extend_from_slice(r.to_line().as_bytes());
        out.push(b'\n');
    }
    out
}

fn sam_bytes_streamed(
    aligner: &Aligner,
    fastq: &[u8],
    batch_bases: usize,
    threads: usize,
) -> Vec<u8> {
    let mut out = Vec::new();
    let batches = BatchReader::new(fastq, batch_bases);
    let (summary, _) =
        align_stream_parallel(aligner, batches, threads, &mut out, None).expect("stream align");
    assert!(summary.reads > 0);
    out
}

#[test]
fn streamed_sam_is_identical_across_batch_sizes_and_threads() {
    let (aligner, reads) = fixture();
    let fastq = write_fastq(&reads);
    let expected = sam_bytes_in_memory(&aligner, &reads, 1);

    // batch sizes: 1 read (budget 0), 1 KiB of bases, default (single batch)
    for batch_bases in [0, 1024, mem2_seqio::DEFAULT_BATCH_BASES] {
        for threads in [1, 2, 4] {
            let got = sam_bytes_streamed(&aligner, fastq.as_bytes(), batch_bases, threads);
            assert_eq!(
                got, expected,
                "batch_bases={batch_bases} threads={threads} must match in-memory SAM"
            );
        }
    }
}

/// Byte identity vs `-t 1` over the shapes a batch can take relative to
/// the slab (16 reads here): one batch, many one-read batches, a batch
/// size that is not a multiple of the slab, and an odd final slab — for
/// more workers than, as many as, and fewer than the slabs of a batch;
/// the classic oracle on the same slab loop agrees at every team size.
#[test]
fn slab_scheduling_matrix_is_byte_identical_to_one_thread() {
    let (aligner, mut reads) = fixture_with(MemOpts {
        batch_reads: 16,
        ..MemOpts::default()
    });
    reads.truncate(119); // 7 full slabs and a 7-read tail in one batch
    let fastq = write_fastq(&reads);
    let expected = sam_bytes_in_memory(&aligner, &reads, 1);
    let shapes = [
        ("one batch", mem2_seqio::DEFAULT_BATCH_BASES),
        ("one read per batch", 0),
        ("2.5 slabs per batch", 40 * 101 - 1),
        ("33 reads per batch, odd final slab", 33 * 101 - 1),
    ];
    for (shape, batch_bases) in shapes {
        for threads in [1, 2, 3, 8] {
            assert_eq!(
                sam_bytes_streamed(&aligner, fastq.as_bytes(), batch_bases, threads),
                expected,
                "{shape}, threads={threads}"
            );
        }
    }
    for threads in [1, 2, 3, 8] {
        assert_eq!(
            sam_bytes(&classic::align_reads_parallel(&aligner, &reads, threads).0),
            expected,
            "in-memory classic oracle, threads={threads}"
        );
    }
}

/// Synthesizes FASTQ records on demand (the input never exists in
/// memory) and counts how many it has handed out.
struct FastqGenerator<'a> {
    n_reads: usize,
    read_len: usize,
    next_read: usize,
    pending: Vec<u8>,
    pos: usize,
    generated: &'a AtomicUsize,
}

impl Read for FastqGenerator<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos == self.pending.len() {
            if self.next_read == self.n_reads {
                return Ok(0);
            }
            let i = self.next_read;
            self.next_read += 1;
            self.pending.clear();
            self.pos = 0;
            self.pending
                .extend_from_slice(format!("@gen{i}\n").as_bytes());
            // low-complexity reads: nothing to seed, one unmapped record each
            self.pending
                .extend(std::iter::repeat_n(b"ACGT"[i % 4], self.read_len));
            self.pending.extend_from_slice(b"\n+\n");
            self.pending
                .extend(std::iter::repeat_n(b'I', self.read_len));
            self.pending.push(b'\n');
            self.generated.fetch_add(1, Ordering::SeqCst);
        }
        let n = (self.pending.len() - self.pos).min(buf.len());
        buf[..n].copy_from_slice(&self.pending[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Counts SAM lines as they are written and tracks the most reads ever
/// generated but not yet written.
struct LineCountingSink<'a> {
    generated: &'a AtomicUsize,
    written: usize,
    max_in_flight: usize,
}

impl Write for LineCountingSink<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.written += buf.iter().filter(|&&b| b == b'\n').count();
        let in_flight = self.generated.load(Ordering::SeqCst) - self.written;
        self.max_in_flight = self.max_in_flight.max(in_flight);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Resident-batch bound: eight workers on a generated stream of 60
/// batches never have more than three batches' reads between the input
/// and the output — decoded for the next step, being aligned, being
/// written — plus what the FASTQ parser reads ahead.
#[test]
fn at_most_three_batches_are_resident_at_eight_threads() {
    const READ_LEN: usize = 50;
    const BATCH_READS: usize = 400;
    const N_BATCHES: usize = 60;
    let (aligner, _) = fixture_with(MemOpts {
        batch_reads: 32,
        ..MemOpts::default()
    });
    let generated = AtomicUsize::new(0);
    let input = FastqGenerator {
        n_reads: N_BATCHES * BATCH_READS,
        read_len: READ_LEN,
        next_read: 0,
        pending: Vec::new(),
        pos: 0,
        generated: &generated,
    };
    let mut sink = LineCountingSink {
        generated: &generated,
        written: 0,
        max_in_flight: 0,
    };
    let batches = BatchReader::new(input, BATCH_READS * READ_LEN);
    let (summary, _) =
        align_stream_parallel(&aligner, batches, 8, &mut sink, None).expect("stream align");
    assert_eq!(summary.batches, N_BATCHES);
    assert_eq!(summary.reads, N_BATCHES * BATCH_READS);
    assert_eq!(sink.written, summary.records);
    assert_eq!(
        summary.records, summary.reads,
        "one unmapped record per read"
    );
    assert!(
        (2..=3).contains(&summary.sched.batches_resident_max),
        "pipeline overlaps steps but holds at most three batches: {}",
        summary.sched.batches_resident_max
    );
    // the parser's read-ahead buffer holds at most this many records
    let read_ahead = (1 << 16) / (2 * READ_LEN) + 1;
    assert!(
        sink.max_in_flight <= 3 * BATCH_READS + read_ahead,
        "{} reads in flight, batch is {BATCH_READS}",
        sink.max_in_flight
    );
    assert_eq!(summary.sched.slabs_per_worker.len(), 8);
    assert_eq!(
        summary.sched.slabs_per_worker.iter().sum::<usize>(),
        N_BATCHES * BATCH_READS.div_ceil(32)
    );
}

#[test]
fn streamed_gzip_input_is_identical() {
    let (aligner, reads) = fixture();
    let fastq = write_fastq(&reads);
    let gz = gzip_compress_stored(fastq.as_bytes());
    let expected = sam_bytes_in_memory(&aligner, &reads, 2);

    let auto = AutoReader::new(&gz[..]).expect("sniff");
    let mut out = Vec::new();
    align_stream_parallel(&aligner, BatchReader::new(auto, 2048), 2, &mut out, None)
        .expect("stream align");
    assert_eq!(out, expected, "gz streamed SAM must match in-memory SAM");
}

#[test]
fn write_errors_tear_down_without_hanging() {
    // a sink that fails after one write: the driver must return the
    // output error and unwind producer + workers (no deadlock), without
    // processing the whole input
    struct FailingSink {
        writes: usize,
    }
    impl std::io::Write for FailingSink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            if self.writes > 1 {
                Err(std::io::Error::new(
                    std::io::ErrorKind::BrokenPipe,
                    "downstream closed",
                ))
            } else {
                Ok(buf.len())
            }
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
    let (aligner, reads) = fixture();
    let fastq = write_fastq(&reads);
    let mut sink = FailingSink { writes: 0 };
    let err = align_stream_parallel(
        &aligner,
        BatchReader::new(fastq.as_bytes(), 0),
        4,
        &mut sink,
        None,
    )
    .expect_err("broken pipe must surface");
    assert!(
        matches!(err, StreamError::Output(ref e) if e.kind() == std::io::ErrorKind::BrokenPipe),
        "got {err}"
    );
}

#[test]
fn input_errors_surface_with_context() {
    let (aligner, _) = fixture();
    // valid record followed by a truncated one
    let bad = b"@ok\nACGTACGTACGTACGTACGTACGT\n+\nIIIIIIIIIIIIIIIIIIIIIIII\n@broken\nACGT\n+\n";
    let mut out = Vec::new();
    let err = align_stream_parallel(&aligner, BatchReader::new(&bad[..], 0), 2, &mut out, None)
        .expect_err("truncated input must fail");
    match err {
        StreamError::Input(SeqIoError::TruncatedRecord { name, .. }) => {
            assert_eq!(name, "broken");
        }
        other => panic!("expected TruncatedRecord, got {other}"),
    }
}
