//! Running the program under test as a child process and reading what the
//! kernel accounted to it: wall time, CPU time and peak resident set, from
//! `wait4(2)` — and, for a daemon still running, CPU time so far from
//! `/proc/<pid>/stat`. Nothing inside the program is touched.

use std::io;
use std::process::{Child, Command};
use std::time::Instant;

/// What one finished child cost.
#[derive(Clone, Copy, Debug)]
pub struct Usage {
    /// Spawn to reaped, seconds.
    pub wall_s: f64,
    /// User + system CPU seconds of the child (all its threads).
    pub cpu_s: f64,
    /// Peak resident set, MB (10^6 bytes).
    pub peak_rss_mb: f64,
    /// Exit status 0.
    pub success: bool,
}

// The offline build has no `libc` crate; like `mem2-server`'s signal
// module, the one call needed is declared against the platform C library.
// The layout is Linux's `struct rusage` on 64-bit targets: two timevals,
// then fourteen longs of which `ru_maxrss` (kilobytes) is the first.
#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn sysconf(name: i32) -> i64;
}

/// Linux's `_SC_CLK_TCK`: the unit of the times in `/proc/<pid>/stat`.
const SC_CLK_TCK: i32 = 2;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads child rusage through Linux's 64-bit wait4 layout");

/// A spawned child that is killed and reaped if dropped before
/// [`Running::finish`], so an error path never leaves a process behind.
pub struct Running {
    child: Option<Child>,
    started: Instant,
}

impl Running {
    pub fn spawn(cmd: &mut Command) -> io::Result<Running> {
        let started = Instant::now();
        let child = cmd.spawn()?;
        Ok(Running {
            child: Some(child),
            started,
        })
    }

    pub fn started(&self) -> Instant {
        self.started
    }

    /// User + system CPU seconds the still-running child (all its threads)
    /// has used so far, as `top` would show them.
    pub fn cpu_s_so_far(&self) -> io::Result<f64> {
        let pid = self
            .child
            .as_ref()
            .expect("child present until finish")
            .id();
        let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
        // SAFETY: `sysconf` only reads its argument.
        let ticks_per_s = unsafe { sysconf(SC_CLK_TCK) };
        cpu_ticks(&stat)
            .filter(|_| ticks_per_s > 0)
            .map(|ticks| ticks as f64 / ticks_per_s as f64)
            .ok_or_else(|| io::Error::other(format!("/proc/{pid}/stat: unexpected format")))
    }

    pub fn child_mut(&mut self) -> &mut Child {
        self.child.as_mut().expect("child present until finish")
    }

    /// Block until the child exits and return its accounting.
    // the child is reaped here, by `wait4` itself rather than `Child::wait`
    #[allow(clippy::zombie_processes)]
    pub fn finish(mut self) -> io::Result<Usage> {
        let child = self.child.take().expect("child present until finish");
        let mut status = 0i32;
        let mut ru = Rusage {
            utime: Timeval { sec: 0, usec: 0 },
            stime: Timeval { sec: 0, usec: 0 },
            maxrss_kb: 0,
            rest: [0; 13],
        };
        // SAFETY: `status` and `ru` are valid for writes for the duration
        // of the call and `Rusage` matches the kernel's layout (see above);
        // the pid is our own un-reaped child, which `Child` never reaps
        // behind our back because we do not call its wait methods.
        let pid = unsafe { wait4(child.id() as i32, &mut status, 0, &mut ru) };
        if pid < 0 {
            return Err(io::Error::last_os_error());
        }
        let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
        Ok(Usage {
            wall_s: self.started.elapsed().as_secs_f64(),
            cpu_s: secs(&ru.utime) + secs(&ru.stime),
            peak_rss_mb: ru.maxrss_kb as f64 * 1024.0 / 1e6,
            // WIFEXITED && WEXITSTATUS == 0
            success: status & 0x7f == 0 && (status >> 8) & 0xff == 0,
        })
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// `utime + stime` of a `/proc/<pid>/stat` line, clock ticks. The command
/// name (field 2) may hold spaces and parentheses; the fields after its last
/// `)` start with the state (field 3), so the times (fields 14, 15) are the
/// twelfth and thirteenth of them.
fn cpu_ticks(stat: &str) -> Option<u64> {
    let (_, after_comm) = stat.rsplit_once(')')?;
    let mut fields = after_comm.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Run a command to completion.
pub fn run(cmd: &mut Command) -> io::Result<Usage> {
    Running::spawn(cmd)?.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_exit_status_and_nonzero_usage() {
        let ok = run(
            Command::new("sh").args(["-c", "i=0; while [ $i -lt 20000 ]; do i=$((i+1)); done"])
        )
        .unwrap();
        assert!(ok.success);
        assert!(ok.wall_s > 0.0 && ok.cpu_s > 0.0 && ok.peak_rss_mb > 0.1);
        let bad = run(Command::new("sh").args(["-c", "exit 3"])).unwrap();
        assert!(!bad.success);
        let killed = run(Command::new("sh").args(["-c", "kill -9 $$"])).unwrap();
        assert!(!killed.success);
    }

    #[test]
    fn cpu_ticks_come_from_fields_14_and_15_whatever_the_command_name() {
        let stat = "4242 (mem2 (serve) x) S 1 4242 4242 0 -1 4194304 900 0 0 0 \
                    731 19 0 0 20 0 3 0 12345 1000000 2000 18446744073709551615";
        assert_eq!(cpu_ticks(stat), Some(750));
        assert_eq!(cpu_ticks("no parenthesis"), None);
        assert_eq!(cpu_ticks("1 (x) S 1 2 3"), None);
    }

    #[test]
    fn a_running_child_reports_the_cpu_time_it_has_used() {
        let mut busy =
            Running::spawn(Command::new("sh").args(["-c", "while :; do :; done"])).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(300));
        let cpu = busy.cpu_s_so_far().unwrap();
        busy.child_mut().kill().unwrap();
        assert!(!busy.finish().unwrap().success);
        assert!(cpu > 0.05 && cpu < 1.0, "{cpu}");
    }
}
