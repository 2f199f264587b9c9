//! Load generator for the daemon workload: a fixed number of connections
//! (client threads in this one process) driving `mem2 serve` through
//! `mem2_server::Client`, as an open loop (requests are due on a schedule
//! and timed from when they were due) or a closed loop (each connection
//! sends its next request as soon as the previous reply arrives).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use mem2_server::{Client, Endpoint, Response, MAX_HONORED_BACKOFF};

use crate::workloads::Request;

/// RETRY replies a request may receive before it counts as failed.
pub const MAX_RETRIES: u32 = 5;

/// What happened to one request. Times are nanoseconds since the phase
/// started.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Index into the request list.
    pub request: usize,
    /// When the request was due (open loop) or its connection became free
    /// (closed loop).
    pub due_ns: u64,
    /// When its connection was free to send it.
    pub free_ns: u64,
    /// When the first byte was handed to the socket.
    pub sent_ns: u64,
    /// When the last reply byte arrived (or the failure was seen).
    pub done_ns: u64,
    /// Bytes sent plus bytes received.
    pub wire_bytes: u64,
    /// The SAM records of the reply; `None` when the request failed (ERR,
    /// retries exhausted, connection error).
    pub sam: Option<String>,
}

impl Outcome {
    /// Due time to last reply byte, milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.done_ns - self.due_ns) as f64 / 1e6
    }

    /// How late the generator itself sent the request: time past the later
    /// of its due time and the moment its connection became free.
    pub fn generator_lag_ms(&self) -> f64 {
        self.sent_ns.saturating_sub(self.due_ns.max(self.free_ns)) as f64 / 1e6
    }
}

/// When requests are issued.
#[derive(Clone, Copy, Debug)]
pub enum Pacing {
    /// Request `i` is due `i / rate_rps` seconds after the start; every
    /// request in the list is sent once.
    Open { rate_rps: f64 },
    /// Connections send back to back, cycling through the list, and stop
    /// issuing once `duration` has passed.
    Closed { duration: Duration },
}

struct Session {
    endpoint: Endpoint,
    client: Option<Client>,
    /// The connection's sticky `mode=` option.
    paired: bool,
}

impl Session {
    /// Send one request, reconnecting first if the last one broke the
    /// connection. Returns the reply SAM and the bytes put on the wire.
    fn send(&mut self, req: &Request) -> (Option<String>, u64) {
        let mut retries = 0;
        let mut wire = 0u64;
        loop {
            let result = self.try_send(req);
            wire += req.fastq.len() as u64;
            match result {
                Ok(Response::Aligned { sam, .. }) => {
                    wire += sam.len() as u64;
                    return (Some(sam), wire);
                }
                Ok(Response::Retry { after }) if retries < MAX_RETRIES => {
                    retries += 1;
                    std::thread::sleep(after.min(MAX_HONORED_BACKOFF));
                }
                Ok(Response::Retry { .. }) => return (None, wire),
                Err(_) => {
                    // ERR closes the connection; the next request redials
                    self.client = None;
                    return (None, wire);
                }
            }
        }
    }

    fn try_send(&mut self, req: &Request) -> std::io::Result<Response> {
        if self.client.is_none() {
            self.client = Some(Client::connect(&self.endpoint)?);
            self.paired = false;
        }
        let client = self.client.as_mut().expect("connected above");
        if self.paired != req.paired {
            client.set_opts(if req.paired { "mode=pe" } else { "mode=se" })?;
            self.paired = req.paired;
        }
        client.align(&req.fastq)
    }
}

/// Drive `requests` over `connections` connections and return one outcome
/// per request sent, in completion order per connection.
pub fn drive(
    endpoint: &Endpoint,
    requests: &[Request],
    pacing: Pacing,
    connections: usize,
) -> Vec<Outcome> {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let now_ns = || start.elapsed().as_nanos() as u64;
    let mut all = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..connections)
            .map(|_| {
                scope.spawn(|| {
                    let mut session = Session {
                        endpoint: endpoint.clone(),
                        client: None,
                        paired: false,
                    };
                    let mut out = Vec::new();
                    loop {
                        let free_ns = now_ns();
                        let turn = next.fetch_add(1, Ordering::Relaxed);
                        let (request, due_ns) = match pacing {
                            Pacing::Open { rate_rps } => {
                                if turn >= requests.len() {
                                    break;
                                }
                                (turn, (turn as f64 / rate_rps * 1e9) as u64)
                            }
                            Pacing::Closed { duration } => {
                                if free_ns >= duration.as_nanos() as u64 {
                                    break;
                                }
                                (turn % requests.len(), free_ns)
                            }
                        };
                        if due_ns > free_ns {
                            std::thread::sleep(Duration::from_nanos(due_ns - free_ns));
                        }
                        let sent_ns = now_ns();
                        let (sam, wire_bytes) = session.send(&requests[request]);
                        out.push(Outcome {
                            request,
                            due_ns,
                            free_ns,
                            sent_ns,
                            done_ns: now_ns(),
                            wire_bytes,
                            sam,
                        });
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            all.extend(h.join().expect("client thread panicked"));
        }
    });
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_counts_from_due_time_and_lag_from_when_sending_was_possible() {
        let o = Outcome {
            request: 0,
            due_ns: 1_000_000,
            free_ns: 3_000_000,
            sent_ns: 3_400_000,
            done_ns: 9_000_000,
            wire_bytes: 0,
            sam: None,
        };
        // the connection was busy until 3 ms: the request waited 2 ms in
        // the generator's queue (counted in latency) and the generator
        // itself was 0.4 ms late
        assert_eq!(o.latency_ms(), 8.0);
        assert!((o.generator_lag_ms() - 0.4).abs() < 1e-9);
    }
}
