//! Prometheus rendering of the daemon's state for the `/metrics`
//! exposition endpoint (`mem2 serve --metrics-addr`).
//!
//! Everything here reads live counters and histogram snapshots at
//! scrape time — nothing is sampled or cached, and nothing touches the
//! alignment hot path. The daemon wires [`render_daemon_metrics`] into a
//! registry collector; keeping the rendering a free function over
//! [`Batcher`] lets the unit tests below exercise the exact bytes a
//! scraper sees without standing up a socket.

use std::sync::atomic::Ordering;
use std::time::Duration;

use mem2_core::profile::STAGE_NAMES;
use mem2_obs::render;

use crate::batcher::Batcher;

/// Append every daemon metric family, in a fixed order, to `out`.
pub fn render_daemon_metrics(
    out: &mut String,
    batcher: &Batcher,
    uptime: Duration,
    queue_cap: usize,
) {
    let c = batcher.counters();
    let no_labels = Vec::new();

    let counters: [(&str, &str, u64); 10] = [
        (
            "mem2_requests_admitted_total",
            "Requests admitted to the queue.",
            c.admitted.load(Ordering::Relaxed),
        ),
        (
            "mem2_requests_rejected_total",
            "Requests rejected with RETRY (queue full or draining).",
            c.rejected.load(Ordering::Relaxed),
        ),
        (
            "mem2_reads_total",
            "Reads aligned (pairs count both ends).",
            c.reads.load(Ordering::Relaxed),
        ),
        (
            "mem2_records_total",
            "SAM records produced.",
            c.records.load(Ordering::Relaxed),
        ),
        (
            "mem2_slabs_total",
            "Alignment slabs executed.",
            c.slabs.load(Ordering::Relaxed),
        ),
        (
            "mem2_slab_submissions_total",
            "Requests coalesced into slabs (occupancy numerator).",
            c.slab_submissions.load(Ordering::Relaxed),
        ),
        (
            "mem2_slab_panics_total",
            "Alignment slabs that panicked (requests answered ERR; daemon survived).",
            c.slab_panics.load(Ordering::Relaxed),
        ),
        (
            "mem2_request_deadlines_total",
            "Requests dropped because their deadline expired before a reply.",
            c.deadlines_expired.load(Ordering::Relaxed),
        ),
        (
            "mem2_index_swaps_total",
            "Successful index hot-swaps (RELOAD/SIGHUP).",
            batcher.slot().swaps(),
        ),
        (
            "mem2_index_swap_failures_total",
            "Rejected reloads (load or CRC verification failed; old index kept).",
            batcher.slot().swap_failures(),
        ),
    ];
    for (name, help, v) in counters {
        render::family_header(out, name, help, "counter");
        render::sample_u64(out, name, &no_labels, v);
    }

    let gauges: [(&str, &str, i64); 4] = [
        (
            "mem2_index_epoch",
            "Index generation currently answering new requests (starts at 1).",
            batcher.slot().epoch() as i64,
        ),
        (
            "mem2_active_connections",
            "Connections currently open.",
            c.active_connections.load(Ordering::Relaxed) as i64,
        ),
        (
            "mem2_queue_depth",
            "Requests waiting in the admission queue.",
            batcher.queue_depth() as i64,
        ),
        (
            "mem2_queue_capacity",
            "Admission queue capacity in requests.",
            queue_cap as i64,
        ),
    ];
    for (name, help, v) in gauges {
        render::family_header(out, name, help, "gauge");
        render::sample_i64(out, name, &no_labels, v);
    }

    render::family_header(
        out,
        "mem2_uptime_seconds",
        "Seconds since the daemon started.",
        "gauge",
    );
    render::sample_f64(out, "mem2_uptime_seconds", &no_labels, uptime.as_secs_f64());

    // one series per pool worker: its share of the uptime is the
    // STATS `scheduler` object's worker_busy_share, per worker
    render::family_header(
        out,
        "mem2_worker_busy_seconds_total",
        "Seconds each pool worker spent running slabs.",
        "counter",
    );
    for (worker, busy) in batcher.scheduler(uptime).worker_busy.iter().enumerate() {
        let labels = vec![("worker".to_string(), worker.to_string())];
        render::sample_f64(
            out,
            "mem2_worker_busy_seconds_total",
            &labels,
            busy.as_secs_f64(),
        );
    }

    render::family_header(
        out,
        "mem2_queue_wait_seconds",
        "Per-submission time queued before a worker took it.",
        "histogram",
    );
    render::histogram_us(
        out,
        "mem2_queue_wait_seconds",
        &no_labels,
        &c.queue_wait_hist.snapshot(),
    );

    render::family_header(
        out,
        "mem2_slab_service_seconds",
        "Per-slab alignment service time.",
        "histogram",
    );
    render::histogram_us(
        out,
        "mem2_slab_service_seconds",
        &no_labels,
        &c.service_hist.snapshot(),
    );

    // One family, seven labeled series: per-call latency of each
    // pipeline stage across all workers.
    render::family_header(
        out,
        "mem2_stage_duration_seconds",
        "Per-call latency of each pipeline stage.",
        "histogram",
    );
    let times = batcher.stage_times();
    for (i, name) in STAGE_NAMES.iter().enumerate() {
        let labels = vec![("stage".to_string(), name.to_string())];
        render::histogram_us(
            out,
            "mem2_stage_duration_seconds",
            &labels,
            &times.hists[i].snapshot(),
        );
    }
}

/// Append process self-stats gauges (`/proc`-derived; absent fields are
/// simply not rendered, so non-Linux builds emit nothing here).
pub fn render_process_metrics(out: &mut String) {
    let s = mem2_obs::proc::read();
    let no_labels = Vec::new();
    let gauges: [(&str, &str, &str, Option<u64>); 5] = [
        (
            "mem2_process_resident_memory_bytes",
            "Resident set size (VmRSS).",
            "gauge",
            s.rss_bytes,
        ),
        (
            "mem2_process_resident_memory_peak_bytes",
            "Peak resident set size (VmHWM).",
            "gauge",
            s.rss_peak_bytes,
        ),
        (
            "mem2_process_minor_page_faults_total",
            "Minor page faults since start.",
            "counter",
            s.minor_faults,
        ),
        (
            "mem2_process_major_page_faults_total",
            "Major page faults since start.",
            "counter",
            s.major_faults,
        ),
        (
            "mem2_process_threads",
            "Kernel thread count.",
            "gauge",
            s.threads,
        ),
    ];
    for (name, help, kind, v) in gauges {
        if let Some(v) = v {
            render::family_header(out, name, help, kind);
            render::sample_u64(out, name, &no_labels, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem2_core::{Aligner, MemOpts};
    use mem2_seqio::GenomeSpec;
    use std::sync::Arc;

    #[test]
    fn renders_required_families_before_any_traffic() {
        let reference = GenomeSpec {
            len: 20_000,
            seed: 3,
            ..GenomeSpec::default()
        }
        .generate_reference("chrM");
        let aligner = Arc::new(Aligner::build(reference, MemOpts::default()));
        let slot = Arc::new(crate::swap::IndexSlot::new(aligner));
        let batcher = Batcher::start(slot, 1, 4, 64, 0);

        let mut out = String::new();
        render_daemon_metrics(&mut out, &batcher, Duration::from_secs(2), 4);
        render_process_metrics(&mut out);

        for family in [
            "mem2_requests_admitted_total",
            "mem2_requests_rejected_total",
            "mem2_reads_total",
            "mem2_queue_depth",
            "mem2_queue_capacity",
            "mem2_uptime_seconds",
            "mem2_worker_busy_seconds_total",
            "mem2_queue_wait_seconds",
            "mem2_slab_service_seconds",
            "mem2_stage_duration_seconds",
            "mem2_process_resident_memory_bytes",
            "mem2_slab_panics_total",
            "mem2_request_deadlines_total",
            "mem2_index_swaps_total",
            "mem2_index_swap_failures_total",
            "mem2_index_epoch",
        ] {
            assert!(
                out.contains(&format!("# TYPE {family} ")),
                "missing family {family}:\n{out}"
            );
        }
        // all seven stages are labeled series of one family
        for stage in STAGE_NAMES {
            assert!(
                out.contains(&format!("stage=\"{stage}\"")),
                "missing stage {stage}"
            );
        }
        assert!(out.contains("mem2_uptime_seconds 2"), "{out}");
        assert!(
            out.contains("mem2_worker_busy_seconds_total{worker=\"0\"} 0"),
            "{out}"
        );
    }
}
