//! Results on the way out: the host fingerprint every result carries, the
//! table and JSON renderings, and the `check` gate that compares two
//! result files against the bounds in `BENCHMARK.json`.

use mem2_bench::sysinfo::SysInfo;

use crate::e2e::Report;
use crate::json::Json;

/// 1-minute load average above which timings are suspect.
pub const LOAD_WARN: f64 = 0.5;

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

pub fn load_average_1m() -> Option<f64> {
    read_trimmed("/proc/loadavg")?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// What the numbers were measured on.
pub fn host_fingerprint(load_at_start: Option<f64>) -> Json {
    let sys = SysInfo::probe();
    let cache = |index: u32| {
        read_trimmed(&format!(
            "/sys/devices/system/cpu/cpu0/cache/index{index}/size"
        ))
        .map_or(Json::Null, Json::Str)
    };
    let backend = mem2_simd::Backend::native();
    Json::obj([
        ("cpu_model", Json::str(sys.model)),
        ("nproc", Json::Int(sys.logical_cpus as i64)),
        ("cpu_simd_flags", Json::str(sys.simd)),
        (
            "simd_backend",
            Json::str(format!(
                "{} ({} u8 lanes)",
                backend.name(),
                backend.u8_lanes()
            )),
        ),
        ("l2", cache(2)),
        ("llc", cache(3)),
        ("mem_gib", Json::Num(sys.mem_gib)),
        (
            "load_1m_at_start",
            load_at_start.map_or(Json::Null, Json::Num),
        ),
    ])
}

fn metrics_json(report: &Report, unexercised: &Json) -> Json {
    Json::Obj(
        report
            .metrics
            .iter()
            .map(|m| {
                let value = m.value.map_or(unexercised.clone(), Json::Num);
                (
                    m.name.to_string(),
                    Json::obj([("value", value), ("unit", Json::str(m.unit))]),
                )
            })
            .collect(),
    )
}

/// The object the driver reads from the last line of stdout. A metric the
/// workload does not exercise is written as 0.
pub fn driver_line(report: &Report) -> Json {
    Json::obj([
        ("correct", Json::Bool(report.correct)),
        ("attempted", Json::Int(report.attempted as i64)),
        ("failed", Json::Int(report.failed as i64)),
        ("metrics", metrics_json(report, &Json::Num(0.0))),
    ])
}

/// One run as stored in the result file: the driver line's fields plus
/// identification, ungated facts and warnings. Unexercised metrics are
/// `null` here.
pub fn run_entry(workload: &str, traced: bool, report: &Report) -> Json {
    Json::obj([
        ("workload", Json::str(workload)),
        ("trace", Json::Bool(traced)),
        ("correct", Json::Bool(report.correct)),
        ("attempted", Json::Int(report.attempted as i64)),
        ("failed", Json::Int(report.failed as i64)),
        ("metrics", metrics_json(report, &Json::Null)),
        ("info", Json::Obj(report.info.clone())),
        (
            "warnings",
            Json::Arr(report.warnings.iter().map(Json::str).collect()),
        ),
    ])
}

/// Every metric by name with its unit, one per line.
pub fn table(workload: &str, traced: bool, report: &Report) -> String {
    let mut out = format!(
        "== {workload} ({}) — correct: {}, attempted: {}, failed: {}\n",
        if traced {
            "per-layer, traced"
        } else {
            "end to end"
        },
        report.correct,
        report.attempted,
        report.failed
    );
    let width = report
        .metrics
        .iter()
        .map(|m| m.name.len())
        .max()
        .unwrap_or(0);
    for m in &report.metrics {
        let value = m.value.map_or("n/a".to_string(), |v| format!("{v:.6}"));
        out.push_str(&format!(
            "  {:<width$}  {:>16}  {}\n",
            m.name, value, m.unit
        ));
    }
    for (k, v) in &report.info {
        out.push_str(&format!("  # {k} = {}\n", v.render()));
    }
    for w in &report.warnings {
        out.push_str(&format!("  ! {w}\n"));
    }
    out
}

// ---------------------------------------------------------------------
// check: the A/A gate
// ---------------------------------------------------------------------

/// An end-to-end metric's gate, from `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    pub name: String,
    pub bound: f64,
}

pub fn bounds_from_manifest(manifest: &Json) -> Result<Vec<Bound>, String> {
    manifest
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Ok(Bound {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("end_to_end entry without a name")?
                    .to_string(),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("end_to_end entry without a bound")?,
            })
        })
        .collect()
}

/// The end-to-end runs of a result file: (workload, metric → value).
fn e2e_runs(result: &Json) -> Result<Vec<(String, &Json)>, String> {
    if result.get("quick").and_then(Json::as_bool) != Some(false) {
        return Err("a --quick result is a smoke test, not a measurement".into());
    }
    Ok(result
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("result file has no runs")?
        .iter()
        .filter(|r| r.get("trace").and_then(Json::as_bool) == Some(false))
        .filter_map(|r| Some((r.get("workload")?.as_str()?.to_string(), r.get("metrics")?)))
        .collect())
}

/// Compare two result files of the same commit. Returns one line per
/// end-to-end metric that differs by more than its bound (as a share of
/// the first file's value), and per failed or incorrect run.
pub fn check(a: &Json, b: &Json, bounds: &[Bound]) -> Result<Vec<String>, String> {
    let runs_a = e2e_runs(a)?;
    let runs_b = e2e_runs(b)?;
    let mut offenders = Vec::new();
    let mut compared = 0;
    for file in [a, b] {
        for r in file.get("runs").and_then(Json::as_arr).unwrap_or(&[]) {
            if r.get("correct").and_then(Json::as_bool) != Some(true) {
                offenders.push(format!(
                    "{}: output check failed",
                    r.get("workload").and_then(Json::as_str).unwrap_or("?")
                ));
            }
        }
    }
    for (workload, metrics_a) in &runs_a {
        let Some((_, metrics_b)) = runs_b.iter().find(|(w, _)| w == workload) else {
            continue;
        };
        for bound in bounds {
            let value = |m: &Json| m.path(&[&bound.name, "value"]).and_then(Json::as_f64);
            let (Some(va), Some(vb)) = (value(metrics_a), value(metrics_b)) else {
                continue;
            };
            compared += 1;
            let diff = (vb - va).abs() / va.abs();
            if diff > bound.bound {
                offenders.push(format!(
                    "{workload}: {} differs by {:.2} % (bound {:.2} %): {va} vs {vb}",
                    bound.name,
                    diff * 100.0,
                    bound.bound * 100.0
                ));
            }
        }
    }
    if compared == 0 {
        return Err("the two files share no end-to-end metric".into());
    }
    Ok(offenders)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(quick: bool, reads_per_s: f64) -> Json {
        Json::obj([
            ("quick", Json::Bool(quick)),
            (
                "runs",
                Json::Arr(vec![Json::obj([
                    ("workload", Json::str("se_wgs")),
                    ("trace", Json::Bool(false)),
                    ("correct", Json::Bool(true)),
                    (
                        "metrics",
                        Json::obj([(
                            "reads_per_s",
                            Json::obj([
                                ("value", Json::Num(reads_per_s)),
                                ("unit", Json::str("reads/s")),
                            ]),
                        )]),
                    ),
                ])]),
            ),
        ])
    }

    fn bounds() -> Vec<Bound> {
        let manifest = Json::parse(
            r#"{"end_to_end": [{"name": "reads_per_s", "unit": "reads/s", "better": "higher", "bound": 0.05}]}"#,
        )
        .unwrap();
        bounds_from_manifest(&manifest).unwrap()
    }

    #[test]
    fn check_flags_just_outside_and_passes_just_inside() {
        let base = result(false, 1000.0);
        assert!(check(&base, &result(false, 951.0), &bounds())
            .unwrap()
            .is_empty());
        assert!(check(&base, &result(false, 1049.0), &bounds())
            .unwrap()
            .is_empty());
        let low = check(&base, &result(false, 949.0), &bounds()).unwrap();
        assert_eq!(low.len(), 1, "{low:?}");
        assert!(low[0].contains("se_wgs") && low[0].contains("reads_per_s"));
        assert_eq!(
            check(&base, &result(false, 1051.0), &bounds())
                .unwrap()
                .len(),
            1
        );
    }

    #[test]
    fn check_refuses_quick_results_and_disjoint_files() {
        assert!(check(&result(true, 1.0), &result(false, 1.0), &bounds()).is_err());
        let other = Json::obj([("quick", Json::Bool(false)), ("runs", Json::Arr(vec![]))]);
        assert!(check(&result(false, 1.0), &other, &bounds()).is_err());
    }
}
