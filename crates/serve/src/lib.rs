//! `hmd-serve` — the fleet-scale serving layer of the 2SMaRT reproduction.
//!
//! The paper positions 2SMaRT as a *run-time* detector; this crate is the
//! path from one trained [`twosmart::detector::TwoSmartDetector`] to a
//! service that classifies HPC telemetry streamed by a fleet of monitored
//! hosts. It is std-only (consistent with the workspace's offline-build
//! constraint) and splits into:
//!
//! - [`protocol`] — a versioned, length-prefixed wire protocol
//!   (`Hello` / `Submit` / `Verdict` / `Drain` / `Error` frames). Payloads
//!   are JSON in protocol v1 and packed little-endian binary in v2
//!   ([`wire2`]); the version is negotiated per connection via `Hello`.
//!   Malformed input becomes an `Error` frame, never a panic.
//! - [`wire2`] — the protocol-v2 binary codec: fixed-layout frames encoded
//!   and decoded without JSON or UTF-8 passes, with an allocation-free
//!   fast path for `Submit`.
//! - [`ready`] — readiness pacing for the worker event loop: exponential
//!   probe backoff per connection, so idle sockets cost O(1) probes per
//!   100 ms instead of a busy poll.
//! - [`session`] — the engine holds the one served detector; each
//!   monitored host's session holds only its window and vote state (a
//!   [`twosmart::online::HostState`]) behind a sharded mutex map, with
//!   idle-session eviction.
//! - [`metrics`] — lock-free atomic service counters, snapshotted over the
//!   wire by the `Drain` frame.
//! - [`service`] — the transport-independent connection state machine:
//!   decode, negotiate, submit, reply, backpressure — generic over any
//!   `Read + Write` stream, shared by the TCP server and the `hmd-sim`
//!   virtual-time simulation.
//! - [`server`] — a multi-threaded `std::net::TcpListener` server: accept
//!   loop, fixed worker pool (thread count follows the `hmd_ml::par`
//!   conventions, i.e. `TWOSMART_THREADS`), bounded connection budget with
//!   explicit load shedding, and graceful draining shutdown.
//! - [`client`] — a small blocking client used by tests, examples and the
//!   load generator.
//! - [`loadgen`] — replays corpus-derived counter streams from K simulated
//!   hosts and reports throughput and latency percentiles.
//!
//! Two binaries wrap the library: `serve` (loads a
//! [`twosmart::persist::DetectorSnapshot`], so training and serving are
//! separate processes) and `loadgen`.
//!
//! # Determinism
//!
//! Verdicts depend only on the per-host counter stream: one detector
//! scores every host, every host owns a private window and vote history,
//! submissions carry a strictly increasing `seq`, and out-of-order or
//! malformed frames are rejected without touching window state. The verdict sequence for a host is therefore
//! bit-identical across runs, worker counts, and connection interleavings.

#![forbid(unsafe_code)]

pub mod client;
pub mod loadgen;
pub mod metrics;
pub mod protocol;
pub mod ready;
pub mod server;
pub mod service;
pub mod session;
pub mod wire2;
