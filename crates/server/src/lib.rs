//! `mem2-server`: the resident alignment daemon behind `mem2 serve`
//! (introduced in PR 7).
//!
//! Index construction dominates short-job latency: loading even a
//! memory-mapped bundle, faulting the FM-index hot path, and warming
//! worker arenas costs far more than aligning a few thousand reads.
//! This crate keeps one loaded [`mem2_core::Aligner`] resident and
//! amortizes it across many clients over a Unix or TCP socket, using
//! the length-prefixed framing of [`mem2_seqio::frame`].
//!
//! The core is the cross-connection micro-batcher ([`batcher`]): small
//! requests from many sockets coalesce into the same alignment slabs
//! the CLI uses, so the seeding/BSW superstages of the paper's design
//! stay full even when every individual client sends only a handful of
//! reads. Coalescing is byte-safe because per-read SAM output is a
//! pure function of `(read, options)` — the determinism invariant the
//! repo pins everywhere — and only requests with identical canonical
//! option fingerprints ([`proto::OptsOverride`]) share a slab.
//!
//! Key types: [`ServeConfig`]/[`serve`]/[`ServerHandle`] (daemon),
//! [`Client`]/[`Response`] (client side), [`Endpoint`] (unix/tcp
//! addressing), [`batcher::Batcher`] (admission queue + worker pool),
//! and the wire verbs in [`proto`]. Backpressure is explicit
//! (bounded queue, RETRY-with-backoff, nothing half-admitted) and
//! shutdown is a drain: SIGTERM or a SHUTDOWN frame stops admission,
//! finishes every admitted request, then exits ([`signal`]).
//!
//! Observability (PR 8): the daemon carries per-submission queue-wait,
//! per-slab service, and per-stage latency histograms (lock-free,
//! `mem2_obs`), surfaces them through the STATS verb and the optional
//! HTTP `/metrics` Prometheus endpoint ([`metrics`],
//! `ServeConfig::metrics_addr`), logs through the structured
//! `mem2_obs::log` logger, and flags outlier slabs via
//! `ServeConfig::slow_ms`.
//!
//! Fault tolerance (PR 9): worker panics are isolated per-slab
//! (`catch_unwind`; the poisoned request answers ERR, the daemon
//! survives), requests and connections carry enforceable deadlines
//! (`ServeConfig::request_timeout`, `ServeConfig::conn_stall`), RETRY
//! backoff is decorrelated-jittered server-side and capped client-side,
//! and the serving index can be hot-swapped under load — the RELOAD
//! verb or SIGHUP loads and CRC-verifies a new bundle off-thread, then
//! atomically switches the [`swap::IndexSlot`] while in-flight slabs
//! finish on their pinned epoch. The [`faultsim`] module provides the
//! injection points the chaos test suite drives.

#![deny(missing_docs)]

pub mod batcher;
pub mod client;
pub mod daemon;
pub mod endpoint;
pub mod faultsim;
pub mod metrics;
pub mod proto;
pub mod signal;
pub mod swap;

pub use client::{Client, Response, MAX_HONORED_BACKOFF};
pub use daemon::{serve, ServeConfig, ServerHandle};
pub use endpoint::{Conn, Endpoint, Listener};
pub use proto::{OptsOverride, RequestMode};
pub use swap::{IndexSlot, PinnedIndex};
