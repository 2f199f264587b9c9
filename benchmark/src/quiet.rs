//! Quiet-host gate. The sizing host is a shared VM that, for minutes at a
//! time, runs this program a third to a half slower than it otherwise does:
//! CPU time per read inflates with wall time, almost no steal time is
//! reported, and a register-only arithmetic loop does not slow down with it,
//! so the guest cannot see a spell except by timing the workload itself.
//! Four such runs in ten make a metric's quartiles meaningless. So the
//! untimed warm-up every run makes anyway — the workload's own program on a
//! tenth of its input — is timed, and while it takes measurably longer
//! than the fastest warm-up this checkout has on record for the workload,
//! the run waits and warms up again, up to a per-run and a per-checkout
//! limit. A run that gives up says so in its result.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::json::Json;

/// The warm-up counts as undisturbed within this factor of the fastest on
/// record: between seeds and undisturbed runs it varies by 5–15 %, a slow
/// spell adds 30–50 %.
const QUIET_RATIO: f64 = 1.25;
/// Longest a single run waits.
const RUN_LIMIT: Duration = Duration::from_secs(45);
/// Longest all runs of a checkout wait together, so that the driver's time
/// cap holds however noisy the host is.
const CHECKOUT_LIMIT_S: f64 = 200.0;
const RETRY_EVERY: Duration = Duration::from_secs(3);

const STATE_FILE: &str = "host-speed.json";
const BEST_KEY: &str = "best_warmup_s";
const WAITED_KEY: &str = "waited_s";

/// What the gate of one run saw.
pub struct Gate {
    state_file: PathBuf,
    /// Which record is this run's: workload and size.
    key: String,
    /// Fastest warm-up on record for the key in this checkout, seconds.
    best_s: f64,
    /// Seconds all runs of this checkout have waited so far.
    checkout_waited_s: f64,
    retry_every: Duration,
    run_waited: Duration,
    last_s: f64,
    gave_up: bool,
}

fn read_state(path: &Path) -> Option<Json> {
    Json::parse(&std::fs::read_to_string(path).ok()?).ok()
}

impl Gate {
    /// Read the checkout's record from `dir` (absent or unreadable: start
    /// afresh).
    pub fn open(dir: &Path, key: String) -> Gate {
        let state_file = dir.join(STATE_FILE);
        let state = read_state(&state_file);
        let state = state.as_ref();
        Gate {
            best_s: state
                .and_then(|s| s.path(&[BEST_KEY, &key])?.as_f64())
                .unwrap_or(f64::INFINITY),
            checkout_waited_s: state
                .and_then(|s| s.get(WAITED_KEY)?.as_f64())
                .unwrap_or(0.0),
            state_file,
            key,
            retry_every: RETRY_EVERY,
            run_waited: Duration::ZERO,
            last_s: 0.0,
            gave_up: false,
        }
    }

    /// Warm up with `warm_up`, which returns how long it took in seconds,
    /// and again until the host looks undisturbed or a limit is reached.
    pub fn settle<E>(&mut self, mut warm_up: impl FnMut() -> Result<f64, E>) -> Result<(), E> {
        self.last_s = warm_up()?;
        let waiting_since = Instant::now();
        loop {
            self.best_s = self.best_s.min(self.last_s);
            if self.last_s <= self.best_s * QUIET_RATIO {
                break;
            }
            if self.run_waited >= RUN_LIMIT
                || self.checkout_waited_s + self.run_waited.as_secs_f64() >= CHECKOUT_LIMIT_S
            {
                self.gave_up = true;
                break;
            }
            std::thread::sleep(self.retry_every);
            self.last_s = warm_up()?;
            self.run_waited = waiting_since.elapsed();
        }
        self.checkout_waited_s += self.run_waited.as_secs_f64();
        self.save();
        Ok(())
    }

    /// Best effort: losing the record only makes the next run less wary.
    fn save(&self) {
        // other workloads' records stay as they are
        let mut best: Vec<(String, Json)> = match read_state(&self.state_file)
            .as_ref()
            .and_then(|s| s.get(BEST_KEY))
        {
            Some(Json::Obj(entries)) => entries.clone(),
            _ => Vec::new(),
        };
        best.retain(|(key, _)| *key != self.key);
        best.push((self.key.clone(), Json::Num(self.best_s)));
        let state = Json::obj([
            (BEST_KEY, Json::Obj(best)),
            (WAITED_KEY, Json::Num(self.checkout_waited_s)),
        ]);
        let _ = std::fs::write(&self.state_file, state.render() + "\n");
    }

    /// Facts for the result file.
    pub fn info(&self) -> Vec<(String, Json)> {
        vec![
            ("warmup_s".into(), Json::Num(self.last_s)),
            ("warmup_best_s".into(), Json::Num(self.best_s)),
            (
                "host_gate_waited_s".into(),
                Json::Num(self.run_waited.as_secs_f64()),
            ),
        ]
    }

    pub fn warning(&self) -> Option<String> {
        self.gave_up.then(|| {
            format!(
                "the host stayed disturbed (warm-up {:.3} s against a best of {:.3} s); \
                 timings of this run are suspect",
                self.last_s, self.best_s
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;

    /// A gate that does not sleep between warm-ups, fed scripted timings.
    fn settle(dir: &Path, key: &str, timings: &[f64]) -> (Gate, usize) {
        let mut gate = Gate::open(dir, key.to_string());
        gate.retry_every = Duration::ZERO;
        let mut calls = 0;
        gate.settle(|| {
            calls += 1;
            Ok::<_, Infallible>(timings[(calls - 1).min(timings.len() - 1)])
        })
        .unwrap();
        (gate, calls)
    }

    #[test]
    fn gate_waits_while_the_warm_up_is_slower_than_the_record() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-gate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        // with no record, the first warm-up is its own baseline: no waiting
        let (first, calls) = settle(&dir, "a", &[2.0]);
        assert_eq!((calls, first.best_s), (1, 2.0));
        assert!(first.warning().is_none());

        // a slower warm-up is repeated until it is within 1.25 × the record;
        // a faster one becomes the record
        let (second, calls) = settle(&dir, "a", &[3.0, 2.6, 2.3, 9.0]);
        assert_eq!((calls, second.last_s, second.best_s), (3, 2.3, 2.0));
        let (third, calls) = settle(&dir, "a", &[1.0]);
        assert_eq!((calls, third.best_s), (1, 1.0));

        // another workload has its own record, and "a" keeps its
        let (other, calls) = settle(&dir, "b", &[7.0]);
        assert_eq!((calls, other.best_s), (1, 7.0));
        assert_eq!(Gate::open(&dir, "a".to_string()).best_s, 1.0);

        // once the checkout's allowance is spent the gate gives up at once
        std::fs::write(
            dir.join(STATE_FILE),
            format!("{{\"{BEST_KEY}\": {{\"a\": 1.0}}, \"{WAITED_KEY}\": {CHECKOUT_LIMIT_S}}}"),
        )
        .unwrap();
        let (spent, calls) = settle(&dir, "a", &[5.0]);
        assert_eq!(calls, 1);
        assert!(spent.warning().is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
