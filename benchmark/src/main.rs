//! `mem2-benchmark` — the repository's benchmark (see README.md).
//!
//! ```text
//! mem2-benchmark [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
//!                [--quick] [--mem2 PATH] [--out FILE]
//! mem2-benchmark check A.json B.json [--manifest BENCHMARK.json]
//! ```
//!
//! A run makes its inputs from `--seed`, measures for about `--seconds`,
//! checks the program's output, prints every metric by name with its unit
//! as a table, writes the same to a result file, and ends with one JSON
//! line: `{"correct", "attempted", "failed", "metrics"}`. `--trace 0`
//! (default) gives the end-to-end metrics, measured from outside the
//! `mem2` binary; `--trace 1` gives the per-layer metrics from an
//! in-process, single-threaded, span-recorded replay.

mod e2e;
mod json;
mod layers;
mod load;
mod proc;
mod quiet;
mod report;
mod stats;
mod trace;
mod traced;
mod verify;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::Json;

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 20190520;
/// `--seconds` when not given; `BENCHMARK.json` passes the same value.
const DEFAULT_SECONDS: f64 = 10.0;
/// Everything a run writes lands under this directory of the checkout.
const OUT_DIR: &str = "benchmark/out";

struct Args {
    workloads: Vec<&'static workloads::Spec>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    mem2: PathBuf,
    out: PathBuf,
}

fn default_mem2() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or("target".into(), PathBuf::from);
    target.join("release").join("mem2")
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: workloads::SPECS.iter().collect(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        mem2: default_mem2(),
        out: Path::new(OUT_DIR).join("result.json"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if name != "all" {
                    let spec = workloads::spec(name).ok_or_else(|| {
                        let known: Vec<_> = workloads::SPECS.iter().map(|s| s.name).collect();
                        format!("unknown workload {name:?} (known: {})", known.join(", "))
                    })?;
                    parsed.workloads = vec![spec];
                }
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(parsed.seconds >= 1.0 && parsed.seconds <= 60.0) {
                    return Err("--seconds must be between 1 and 60".into());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--quick" => parsed.quick = true,
            "--mem2" => parsed.mem2 = PathBuf::from(value()?),
            "--out" => parsed.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

fn run(args: &Args) -> Result<bool, Box<dyn std::error::Error>> {
    if !args.mem2.is_file() {
        return Err(format!(
            "{}: no mem2 binary (build it with `cargo build --release`, or run benchmark/run.sh)",
            args.mem2.display()
        )
        .into());
    }
    let load = report::load_average_1m();
    if load.is_some_and(|l| l > report::LOAD_WARN) {
        eprintln!(
            "warning: 1-minute load average is {:.2}; timings will be noisy",
            load.unwrap_or(0.0)
        );
    }
    std::fs::create_dir_all(OUT_DIR)?;
    let mut runs = Vec::new();
    let mut all_correct = true;
    let mut last_line = String::new();
    for spec in &args.workloads {
        let work = Path::new(OUT_DIR).join(format!("work-{}", spec.name));
        let _ = std::fs::remove_dir_all(&work);
        std::fs::create_dir_all(&work)?;
        let cfg = e2e::Config {
            mem2: args.mem2.clone(),
            work: work.clone(),
            seed: args.seed,
            seconds: args.seconds,
            quick: args.quick,
        };
        let report = if args.trace {
            traced::run_workload(spec, &cfg)?
        } else {
            e2e::run_workload(spec, &cfg)?
        };
        // inputs, bundle and SAM are large; only the log is worth keeping
        // and only when something went wrong
        if report.correct {
            std::fs::remove_dir_all(&work)?;
        }
        print!("{}", report::table(spec.name, args.trace, &report));
        all_correct &= report.correct;
        runs.push(report::run_entry(spec.name, args.trace, &report));
        last_line = report::driver_line(&report).render();
    }
    let result = Json::obj([
        ("quick", Json::Bool(args.quick)),
        ("seed", Json::Int(args.seed as i64)),
        ("seconds", Json::Num(args.seconds)),
        ("host", report::host_fingerprint(load)),
        ("runs", Json::Arr(runs)),
    ]);
    std::fs::write(&args.out, result.render() + "\n")?;
    println!("{last_line}");
    Ok(all_correct)
}

fn check(args: &[String]) -> Result<bool, Box<dyn std::error::Error>> {
    let mut manifest = PathBuf::from("BENCHMARK.json");
    let mut files = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--manifest" {
            manifest = PathBuf::from(it.next().ok_or("--manifest needs a path")?);
        } else {
            files.push(a);
        }
    }
    let [a, b] = files[..] else {
        return Err("usage: mem2-benchmark check A.json B.json [--manifest BENCHMARK.json]".into());
    };
    let read = |p: &Path| -> Result<Json, Box<dyn std::error::Error>> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        Ok(Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))?)
    };
    let bounds = report::bounds_from_manifest(&read(&manifest)?)?;
    let offenders = report::check(&read(Path::new(a))?, &read(Path::new(b))?, &bounds)?;
    for line in &offenders {
        println!("{line}");
    }
    if offenders.is_empty() {
        println!("every end-to-end metric agrees within its bound");
    }
    Ok(offenders.is_empty())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if args.first().map(String::as_str) == Some("check") {
        check(&args[1..])
    } else {
        parse_args(&args)
            .map_err(Into::into)
            .and_then(|parsed| run(&parsed))
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("mem2-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
