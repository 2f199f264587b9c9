//! Fault-injection points for the chaos test suite.
//!
//! Production code calls [`fire`] at named fault points; the call is a
//! single relaxed atomic load unless a test (or the `MEM2_FAULT`
//! environment variable) has armed a fault, so the hooks are free in
//! normal service. Each armed fault carries a shot budget — it fires
//! that many times, then disarms itself — and an optional `u64` value
//! whose meaning is per-point (a delay in milliseconds, a byte cap, …).
//!
//! Fault points wired into the daemon:
//!
//! | point | effect | value |
//! |---|---|---|
//! | [`SLAB_PANIC`] | a slab panics (SE: the group's last slab) | unused |
//! | [`SLAB_DELAY_MS`] | worker sleeps before aligning a group | delay (ms) |
//! | [`WRITE_TEAR`] | SAM frame header written, payload truncated | unused |
//! | [`ACCEPT_DELAY_MS`] | acceptor sleeps before `accept()` | delay (ms) |
//! | [`SHORT_READ`] | connection reads capped to N bytes each | byte cap |
//!
//! Environment syntax: `MEM2_FAULT="slab_panic=1,short_read=1000000:7"`
//! arms `slab_panic` for one shot and `short_read` for a million shots
//! with value 7. Parsed once at daemon startup via [`init_from_env`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};

/// A slab panics: one shot per coalesced group, drawn by the worker that
/// popped it. A single-end group panics in its last slab, on whichever
/// pool worker claims it; that worker drops its own arena for the
/// group's options and carries on.
pub const SLAB_PANIC: &str = "slab_panic";
/// The worker that popped a group sleeps `value` milliseconds before
/// aligning it.
pub const SLAB_DELAY_MS: &str = "slab_delay_ms";
/// A SAM frame header is written but its payload cut short, tearing the
/// stream mid-frame.
pub const WRITE_TEAR: &str = "write_tear";
/// The acceptor sleeps `value` milliseconds before accepting.
pub const ACCEPT_DELAY_MS: &str = "accept_delay_ms";
/// Connection reads are capped to `value` bytes per `read()` call,
/// forcing the framing layer to reassemble from fragments.
pub const SHORT_READ: &str = "short_read";

struct Fault {
    shots: u64,
    value: u64,
}

static ANY_ARMED: AtomicBool = AtomicBool::new(false);

fn table() -> &'static Mutex<HashMap<String, Fault>> {
    static TABLE: OnceLock<Mutex<HashMap<String, Fault>>> = OnceLock::new();
    TABLE.get_or_init(|| Mutex::new(HashMap::new()))
}

fn lock(m: &Mutex<HashMap<String, Fault>>) -> std::sync::MutexGuard<'_, HashMap<String, Fault>> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Arm `point` for `shots` firings carrying `value`. Replaces any
/// existing arming of the same point.
pub fn arm(point: &str, shots: u64, value: u64) {
    let mut t = lock(table());
    if shots == 0 {
        t.remove(point);
    } else {
        t.insert(point.to_string(), Fault { shots, value });
    }
    ANY_ARMED.store(!t.is_empty(), Ordering::Release);
}

/// Disarm every fault point (test teardown).
pub fn disarm_all() {
    lock(table()).clear();
    ANY_ARMED.store(false, Ordering::Release);
}

/// Consume one shot of `point` if armed: returns its value, or `None`
/// when the point is not armed (the overwhelmingly common case — a
/// single atomic load).
pub fn fire(point: &str) -> Option<u64> {
    if !ANY_ARMED.load(Ordering::Acquire) {
        return None;
    }
    let mut t = lock(table());
    let fault = t.get_mut(point)?;
    fault.shots -= 1;
    let value = fault.value;
    if fault.shots == 0 {
        t.remove(point);
        ANY_ARMED.store(!t.is_empty(), Ordering::Release);
    }
    Some(value)
}

/// Arm faults from the `MEM2_FAULT` environment variable (see the
/// module docs for syntax). Unparseable entries are ignored with a
/// warning rather than aborting startup.
pub fn init_from_env() {
    let Ok(spec) = std::env::var("MEM2_FAULT") else {
        return;
    };
    for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
        let Some((point, rest)) = entry.split_once('=') else {
            mem2_obs::log::warn(
                "faultsim",
                "ignoring malformed MEM2_FAULT entry",
                &[("entry", &entry)],
            );
            continue;
        };
        let (shots, value) = match rest.split_once(':') {
            Some((s, v)) => (s.parse::<u64>(), v.parse::<u64>().unwrap_or(0)),
            None => (rest.parse::<u64>(), 0),
        };
        match shots {
            Ok(shots) => {
                mem2_obs::log::warn(
                    "faultsim",
                    "fault injection armed from MEM2_FAULT",
                    &[("point", &point), ("shots", &shots), ("value", &value)],
                );
                arm(point, shots, value);
            }
            Err(_) => mem2_obs::log::warn(
                "faultsim",
                "ignoring malformed MEM2_FAULT entry",
                &[("entry", &entry)],
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fire_consumes_shots_and_disarms() {
        disarm_all();
        assert_eq!(fire("nope"), None);
        arm("p", 2, 42);
        assert_eq!(fire("p"), Some(42));
        assert_eq!(fire("other"), None);
        assert_eq!(fire("p"), Some(42));
        assert_eq!(fire("p"), None, "shots exhausted");
        assert!(!ANY_ARMED.load(Ordering::Acquire));

        arm("q", 1, 0);
        disarm_all();
        assert_eq!(fire("q"), None);
    }
}
