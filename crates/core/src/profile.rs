//! Per-stage wall-time accounting (Table 1 of the paper). Multithreaded
//! drivers sum each worker's wall clock per stage, so totals are
//! worker-seconds, not CPU time and not elapsed time.
//!
//! Each accumulator carries both summed totals (Table 1's averages) and
//! a log-linear latency histogram per stage, so end-of-run reports and
//! the daemon's STATS/metrics can surface tail percentiles (p50/p90/p99
//! and exact max), not just means. Recording an observation is one
//! `Duration` add plus a few relaxed atomic increments — cheap enough to
//! stay on in production.

use std::time::Duration;

use mem2_obs::{Hist, HistSnapshot};

/// The SMEM stage's occurrence-query counters, carried in
/// [`StageTimes::seed`]: SMEM seconds over `queries()` is the time per
/// occurrence query.
pub use mem2_fmindex::SeedStats;

/// Pipeline stages as profiled in Table 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// SMEM seeding.
    Smem,
    /// Suffix-array lookup.
    Sal,
    /// Seed chaining and chain filtering.
    Chain,
    /// BSW pre-processing (reference window fetch, the accept/skip walk
    /// to each read's next seed, extension-job construction).
    BswPre,
    /// Banded Smith-Waterman extension (the engine's length sort, SoA
    /// conversion and kernels) and region assembly.
    Bsw,
    /// SAM formatting: CIGAR/MD generation and text rendering, single-end
    /// records and paired-end `pair_to_sam` alike.
    SamForm,
    /// Everything else (region dedup, primary marking, bookkeeping). On
    /// paired-end input this is where insert-size estimation, mate rescue
    /// and `select_pair` are counted; the rescue's local-DP work is in
    /// [`StageTimes::rescue`] (calls, hits, forward and reverse cells).
    Misc,
}

/// Stage labels in display order.
pub const STAGE_NAMES: [&str; 7] = ["SMEM", "SAL", "CHAIN", "BSW-pre", "BSW", "SAM-FORM", "Misc"];

/// Accumulated per-stage durations plus per-stage latency histograms
/// (microsecond observations, one per `add` call).
///
/// No longer `Copy` (histograms are shared-by-clone `Arc`s): `clone()`
/// aliases the same histogram buckets, which is what the take/merge
/// worker discipline wants. Use `StageTimes::default()` for a fresh
/// independent accumulator.
#[derive(Clone, Debug, Default)]
pub struct StageTimes {
    /// Total time per stage, indexed by `Stage as usize`.
    pub totals: [Duration; 7],
    /// Per-observation latency histogram per stage (values in us).
    pub hists: [Hist; 7],
    /// The SMEM stage's occurrence queries, counted where they run.
    pub seed: SeedStats,
    /// The SAM-FORM stage's CIGAR work, counted where it runs (every
    /// SAM formatter is handed its worker's `StageTimes`).
    pub cigar: CigarStats,
    /// The `Misc` stage's mate-rescue work, counted where it runs.
    pub rescue: RescueStats,
}

impl StageTimes {
    /// Add a duration to a stage: bumps the stage total and records the
    /// observation (in whole microseconds) in the stage histogram.
    #[inline]
    pub fn add(&mut self, stage: Stage, d: Duration) {
        self.totals[stage as usize] += d;
        self.hists[stage as usize].record(d.as_micros() as u64);
    }

    /// Merge another accumulator into this one (totals added,
    /// histograms summed bucket-wise — exact).
    pub fn merge(&mut self, other: &StageTimes) {
        for (a, b) in self.totals.iter_mut().zip(&other.totals) {
            *a += *b;
        }
        for (a, b) in self.hists.iter().zip(&other.hists) {
            a.merge_from(b);
        }
        self.seed.merge(&other.seed);
        self.cigar.merge(&other.cigar);
        self.rescue.merge(&other.rescue);
    }

    /// Zero every total, histogram and counter in place, keeping the
    /// histograms' buckets: no allocation.
    pub fn reset(&mut self) {
        self.totals = Default::default();
        for h in &self.hists {
            h.clear();
        }
        self.seed = SeedStats::default();
        self.cigar = CigarStats::default();
        self.rescue = RescueStats::default();
    }

    /// Total across stages.
    pub fn total(&self) -> Duration {
        self.totals.iter().sum()
    }

    /// Percentage share per stage.
    pub fn percentages(&self) -> [f64; 7] {
        let t = self.total().as_secs_f64();
        let mut out = [0.0; 7];
        if t > 0.0 {
            for (o, d) in out.iter_mut().zip(&self.totals) {
                *o = 100.0 * d.as_secs_f64() / t;
            }
        }
        out
    }

    /// Point-in-time copy of every stage histogram, in display order.
    pub fn snapshots(&self) -> [HistSnapshot; 7] {
        std::array::from_fn(|i| self.hists[i].snapshot())
    }

    /// Render as an aligned two-column table.
    pub fn render(&self, title: &str) -> String {
        let mut s = format!("{title}\n");
        let pct = self.percentages();
        for i in 0..7 {
            s.push_str(&format!(
                "  {:<9} {:>8.3}s {:>6.1}%\n",
                STAGE_NAMES[i],
                self.totals[i].as_secs_f64(),
                pct[i]
            ));
        }
        s.push_str(&format!(
            "  {:<9} {:>8.3}s\n",
            "Total",
            self.total().as_secs_f64()
        ));
        s
    }

    /// Render totals plus per-observation latency percentiles, one row
    /// per stage (the `--profile` report). Stages with no observations
    /// show `-`.
    pub fn render_percentiles(&self, title: &str) -> String {
        let mut s = format!("{title}\n");
        s.push_str(&format!(
            "  {:<9} {:>9} {:>6} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
            "stage", "total_s", "%", "calls", "p50_us", "p90_us", "p99_us", "max_us"
        ));
        let pct = self.percentages();
        for i in 0..7 {
            let snap = self.hists[i].snapshot();
            let q = |p: f64| match snap.quantile(p) {
                Some(v) => v.to_string(),
                None => "-".into(),
            };
            s.push_str(&format!(
                "  {:<9} {:>9.3} {:>6.1} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
                STAGE_NAMES[i],
                self.totals[i].as_secs_f64(),
                pct[i],
                snap.count,
                q(0.50),
                q(0.90),
                q(0.99),
                if snap.count == 0 {
                    "-".into()
                } else {
                    snap.max.to_string()
                },
            ));
        }
        s.push_str(&format!(
            "  {:<9} {:>9.3}\n",
            "Total",
            self.total().as_secs_f64()
        ));
        s
    }

    /// Render as JSON object members, without the enclosing braces so a
    /// report can add members of its own (the `--profile=json` report):
    /// per-stage totals in ms plus percentile summaries; `null` where a
    /// stage has no observations.
    pub fn render_json_fields(&self) -> String {
        let mut s = String::from("\"stages\":{");
        for i in 0..7 {
            if i > 0 {
                s.push(',');
            }
            let snap = self.hists[i].snapshot();
            s.push_str(&format!(
                "\"{}\":{{\"total_ms\":{:.3},\"calls\":{},{}}}",
                STAGE_NAMES[i],
                self.totals[i].as_secs_f64() * 1e3,
                snap.count,
                percentile_fields_us(&snap),
            ));
        }
        s.push_str(&format!(
            "}},\"total_ms\":{:.3}",
            self.total().as_secs_f64() * 1e3
        ));
        s
    }
}

/// Seed-extension work counters, carried beside [`StageTimes`] in every
/// worker and merged the same way: how many DP jobs the BSW stage ran
/// and, on the batched path, in how many dependency rounds per slab.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExtendStats {
    /// Reads aligned.
    pub reads: u64,
    /// Extension jobs run, band-doubling retries included.
    pub jobs: u64,
    /// Of `jobs`, the re-runs at the doubled band.
    pub retries: u64,
    /// Batched slabs aligned (0 on the classic path).
    pub slabs: u64,
    /// Dependency rounds, summed over slabs.
    pub rounds: u64,
    /// Most rounds one slab needed.
    pub rounds_max: u64,
}

impl ExtendStats {
    /// Count `first_band` jobs run at the initial band, `retried` of which
    /// ran again at the doubled band.
    pub fn add_jobs(&mut self, first_band: usize, retried: usize) {
        self.jobs += (first_band + retried) as u64;
        self.retries += retried as u64;
    }

    /// Count one batched slab that needed `rounds` dependency rounds.
    pub fn add_slab(&mut self, rounds: u64) {
        self.slabs += 1;
        self.rounds += rounds;
        self.rounds_max = self.rounds_max.max(rounds);
    }

    /// Add another worker's counters.
    pub fn merge(&mut self, other: &ExtendStats) {
        self.reads += other.reads;
        self.jobs += other.jobs;
        self.retries += other.retries;
        self.slabs += other.slabs;
        self.rounds += other.rounds;
        self.rounds_max = self.rounds_max.max(other.rounds_max);
    }

    /// Jobs per read (0 when no read was aligned).
    pub fn jobs_per_read(&self) -> f64 {
        self.jobs as f64 / self.reads.max(1) as f64
    }

    /// Mean rounds per slab, `None` without batched slabs.
    pub fn rounds_mean(&self) -> Option<f64> {
        (self.slabs > 0).then(|| self.rounds as f64 / self.slabs as f64)
    }

    /// One-line text form for the `--profile` report.
    pub fn render(&self) -> String {
        format!(
            "jobs {} (band retries {}) over {} reads = {:.2} jobs/read  \
             rounds per slab max {} mean {} over {} slabs",
            self.jobs,
            self.retries,
            self.reads,
            self.jobs_per_read(),
            self.rounds_max,
            self.rounds_mean().map_or("-".into(), |m| format!("{m:.2}")),
            self.slabs,
        )
    }

    /// JSON object form for `--profile=json`; `null` mean without slabs.
    pub fn render_json(&self) -> String {
        format!(
            "{{\"jobs\":{},\"retries\":{},\"reads\":{},\"jobs_per_read\":{:.4},\
             \"slabs\":{},\"rounds_per_slab_max\":{},\"rounds_per_slab_mean\":{}}}",
            self.jobs,
            self.retries,
            self.reads,
            self.jobs_per_read(),
            self.slabs,
            self.rounds_max,
            self.rounds_mean()
                .map_or("null".into(), |m| format!("{m:.4}")),
        )
    }
}

/// CIGAR-generation work counters (the SAM-FORM stage's banded global
/// DP, bwa's `bwa_gen_cigar2`), carried in [`StageTimes::cigar`]:
/// SAM-FORM seconds over `cells` is the DP's time per cell.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CigarStats {
    /// Global-DP alignments run, band re-runs included.
    pub calls: u64,
    /// CIGARs taken by the no-gap shortcut instead (no DP).
    pub nogap: u64,
    /// CIGARs generated again at a doubled band (either kind).
    pub reruns: u64,
    /// DP cells the `calls` filled.
    pub cells: u64,
}

impl CigarStats {
    /// Add another worker's counters.
    pub fn merge(&mut self, other: &CigarStats) {
        self.calls += other.calls;
        self.nogap += other.nogap;
        self.reruns += other.reruns;
        self.cells += other.cells;
    }

    /// Mean DP cells per global-DP call (0 without calls).
    pub fn cells_per_call(&self) -> f64 {
        self.cells as f64 / self.calls.max(1) as f64
    }

    /// One-line text form for the `--profile` report.
    pub fn render(&self) -> String {
        format!(
            "global DP calls {} (band re-runs {}), no-gap shortcuts {}, \
             cells {} = {:.0} cells/call",
            self.calls,
            self.reruns,
            self.nogap,
            self.cells,
            self.cells_per_call(),
        )
    }

    /// JSON object form for `--profile=json`.
    pub fn render_json(&self) -> String {
        format!(
            "{{\"calls\":{},\"reruns\":{},\"nogap\":{},\"cells\":{}}}",
            self.calls, self.reruns, self.nogap, self.cells,
        )
    }
}

/// Mate-rescue work counters (bwa's `mem_matesw`: one local
/// Smith-Waterman per rescue window, counted in `Misc`), carried in
/// [`StageTimes::rescue`]: `Misc` seconds over the cells is the local
/// DP's time per cell, and `calls − hits` the windows whose DP found
/// nothing worth keeping.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RescueStats {
    /// Local alignments run, one per rescue window.
    pub calls: u64,
    /// Of `calls`, those that added a region to the mate.
    pub hits: u64,
    /// DP cells of the forward passes (the whole window × mate matrix).
    pub cells_fwd: u64,
    /// DP cells of the start-finding reverse passes, up to their early
    /// stop.
    pub cells_rev: u64,
}

impl RescueStats {
    /// Add another worker's counters.
    pub fn merge(&mut self, other: &RescueStats) {
        self.calls += other.calls;
        self.hits += other.hits;
        self.cells_fwd += other.cells_fwd;
        self.cells_rev += other.cells_rev;
    }

    /// One-line text form for the `--profile` report.
    pub fn render(&self) -> String {
        format!(
            "local SW calls {} (hits {}), cells {} forward + {} reverse = {:.0} cells/call",
            self.calls,
            self.hits,
            self.cells_fwd,
            self.cells_rev,
            (self.cells_fwd + self.cells_rev) as f64 / self.calls.max(1) as f64,
        )
    }

    /// JSON object form for `--profile=json`.
    pub fn render_json(&self) -> String {
        format!(
            "{{\"calls\":{},\"hits\":{},\"cells_fwd\":{},\"cells_rev\":{}}}",
            self.calls, self.hits, self.cells_fwd, self.cells_rev,
        )
    }
}

/// Render the shared percentile summary fields from a histogram of
/// microsecond observations: `"p50_us":N,...` with `null` when empty.
/// Used by both the `--profile=json` report and the daemon's STATS so
/// the schema stays in one place.
pub fn percentile_fields_us(snap: &HistSnapshot) -> String {
    let q = |p: f64| match snap.quantile(p) {
        Some(v) => v.to_string(),
        None => "null".into(),
    };
    format!(
        "\"p50_us\":{},\"p90_us\":{},\"p99_us\":{},\"max_us\":{}",
        q(0.50),
        q(0.90),
        q(0.99),
        if snap.count == 0 {
            "null".into()
        } else {
            snap.max.to_string()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_and_merges() {
        let mut a = StageTimes::default();
        a.add(Stage::Smem, Duration::from_millis(300));
        a.add(Stage::Bsw, Duration::from_millis(700));
        let mut b = StageTimes::default();
        b.add(Stage::Smem, Duration::from_millis(200));
        a.merge(&b);
        assert_eq!(a.totals[Stage::Smem as usize], Duration::from_millis(500));
        assert_eq!(a.total(), Duration::from_millis(1200));
        let pct = a.percentages();
        assert!((pct[Stage::Smem as usize] - 41.666).abs() < 0.1);
        let rendered = a.render("Table 1");
        assert!(rendered.contains("SMEM"));
        assert!(rendered.contains("Total"));
    }

    #[test]
    fn empty_times_render_zero() {
        let t = StageTimes::default();
        assert_eq!(t.percentages(), [0.0; 7]);
    }

    #[test]
    fn histograms_track_observations() {
        let mut t = StageTimes::default();
        t.add(Stage::Smem, Duration::from_micros(100));
        t.add(Stage::Smem, Duration::from_micros(300));
        let snap = t.hists[Stage::Smem as usize].snapshot();
        assert_eq!(snap.count, 2);
        assert_eq!(snap.max, 300);
        // p50 estimate bounds the true median (100us) within 1/16.
        let p50 = snap.quantile(0.5).unwrap();
        assert!((100..=107).contains(&p50), "p50={p50}");

        let mut other = StageTimes::default();
        other.add(Stage::Smem, Duration::from_micros(50));
        t.merge(&other);
        assert_eq!(t.hists[Stage::Smem as usize].count(), 3);
    }

    #[test]
    fn clone_aliases_histograms_but_default_is_fresh() {
        let mut t = StageTimes::default();
        let alias = t.clone();
        t.add(Stage::Bsw, Duration::from_micros(10));
        assert_eq!(alias.hists[Stage::Bsw as usize].count(), 1);
        assert_eq!(StageTimes::default().hists[Stage::Bsw as usize].count(), 0);
    }

    #[test]
    fn extend_stats_merge_and_render() {
        let mut a = ExtendStats {
            reads: 4,
            ..ExtendStats::default()
        };
        a.add_jobs(10, 2);
        a.add_slab(3);
        let mut b = ExtendStats {
            reads: 4,
            ..ExtendStats::default()
        };
        b.add_jobs(6, 0);
        b.add_slab(5);
        a.merge(&b);
        assert_eq!((a.jobs, a.retries, a.reads), (18, 2, 8));
        assert_eq!((a.slabs, a.rounds, a.rounds_max), (2, 8, 5));
        assert_eq!(a.rounds_mean(), Some(4.0));
        let json = a.render_json();
        assert!(json.contains("\"jobs_per_read\":2.2500"), "{json}");
        assert!(json.contains("\"rounds_per_slab_max\":5"), "{json}");
        assert!(a.render().contains("rounds per slab max 5 mean 4.00"));
        // the classic path has no slabs: the mean is null, not 0
        let classic = ExtendStats::default();
        assert!(classic
            .render_json()
            .contains("\"rounds_per_slab_mean\":null"));
    }

    #[test]
    fn cigar_stats_merge_with_stage_times_and_render() {
        let mut a = StageTimes {
            cigar: CigarStats {
                calls: 3,
                nogap: 1,
                reruns: 1,
                cells: 300,
            },
            ..StageTimes::default()
        };
        let mut b = StageTimes::default();
        b.cigar.calls = 1;
        b.cigar.cells = 100;
        a.merge(&b);
        assert_eq!(
            a.cigar,
            CigarStats {
                calls: 4,
                nogap: 1,
                reruns: 1,
                cells: 400
            }
        );
        assert_eq!(a.cigar.cells_per_call(), 100.0);
        assert!(a.cigar.render().contains("band re-runs 1"));
        assert_eq!(
            a.cigar.render_json(),
            "{\"calls\":4,\"reruns\":1,\"nogap\":1,\"cells\":400}"
        );
        assert_eq!(CigarStats::default().cells_per_call(), 0.0);
    }

    #[test]
    fn rescue_stats_merge_with_stage_times_and_render() {
        let mut a = StageTimes {
            rescue: RescueStats {
                calls: 3,
                hits: 2,
                cells_fwd: 900,
                cells_rev: 150,
            },
            ..StageTimes::default()
        };
        let mut b = StageTimes::default();
        b.rescue.calls = 1;
        b.rescue.cells_fwd = 300;
        a.merge(&b);
        assert_eq!(
            a.rescue,
            RescueStats {
                calls: 4,
                hits: 2,
                cells_fwd: 1200,
                cells_rev: 150
            }
        );
        assert!(a.rescue.render().contains("(hits 2)"));
        assert!(a.rescue.render().ends_with("= 338 cells/call"));
        assert_eq!(
            a.rescue.render_json(),
            "{\"calls\":4,\"hits\":2,\"cells_fwd\":1200,\"cells_rev\":150}"
        );
        assert!(RescueStats::default().render().ends_with("= 0 cells/call"));
    }

    #[test]
    fn percentile_reports() {
        let mut t = StageTimes::default();
        t.add(Stage::Chain, Duration::from_micros(400));
        let text = t.render_percentiles("profile");
        assert!(text.contains("p99_us"));
        assert!(text.contains("CHAIN"));
        let json = t.render_json_fields();
        assert!(json.starts_with("\"stages\":{") && json.contains("},\"total_ms\":0.400"));
        assert!(json.contains("\"CHAIN\":{\"total_ms\":0.400"));
        // untouched stages must render null percentiles, not 0
        assert!(json.contains("\"SMEM\":{\"total_ms\":0.000,\"calls\":0,\"p50_us\":null"));
    }
}
