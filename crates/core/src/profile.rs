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

/// Pipeline stages as profiled in Table 1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// SMEM seeding.
    Smem,
    /// Suffix-array lookup.
    Sal,
    /// Seed chaining and chain filtering.
    Chain,
    /// BSW pre-processing (reference window fetch, job construction,
    /// sorting, SoA conversion).
    BswPre,
    /// Banded Smith-Waterman extension.
    Bsw,
    /// SAM formatting.
    SamForm,
    /// Everything else (region dedup, primary marking, bookkeeping).
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
