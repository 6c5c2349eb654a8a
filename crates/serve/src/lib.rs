//! **Serving**: the Quantum Waltz compile-and-simulate service — the
//! network boundary of ROADMAP item 2, lifting the
//! [`waltz_core::Supervisor`]'s per-job guarantees (panic isolation,
//! deadlines, byte-budget backpressure) and the shared
//! [`waltz_core::ArtifactCache`] across a TCP connection, std-only.
//!
//! Four layers:
//!
//! * [`protocol`] — the framed wire protocol over [`waltz_codec`]: a
//!   [`protocol::PROTOCOL_VERSION`]'d envelope
//!   (`WSRV || version || length || payload`) carrying typed
//!   [`protocol::Request`]/[`protocol::Response`] messages. Every
//!   decline is a typed [`protocol::ErrorFrame`] with a stable
//!   [`protocol::ErrorCode`]; job failures carry the original
//!   [`waltz_core::CompileError`], so clients rebuild the exact
//!   supervisor [`waltz_core::JobReport`].
//! * [`server`] — a threaded [`server::Server`]: nonblocking acceptor,
//!   bounded job queue feeding a worker pool around one shared
//!   [`waltz_core::Supervisor`], all-or-nothing batch admission
//!   (structured [`protocol::ErrorCode::QUEUE_FULL`] backpressure), an
//!   optional [`server::LoadWatermark`] coupling queue depth to the
//!   supervisor's live byte budget, and graceful shutdown that drains
//!   every queued job before joining.
//! * [`client`] — the synchronous [`client::ServeClient`]: connect with
//!   retry/backoff ([`client::RetryPolicy`]), submit and iterate
//!   streamed job reports ([`client::BatchStream`]), run remote
//!   simulations, read stats. [`client::ServeClient::compile_batch`] is
//!   the remote mirror of [`waltz_core::Supervisor::compile_batch`]:
//!   element-wise identical reports (status, degradation, artifact
//!   bytes), with failures as `Err` results, not exceptions.
//! * [`stats`] — per-server observability: jobs
//!   accepted/rejected/completed/panicked/timed-out, cache hits, queue
//!   high-water, bytes on wire, per-pass wall-time aggregates —
//!   queryable over the wire ([`protocol::Request::Stats`]) and printed
//!   by the `waltz_serve` binary on shutdown.
//!
//! Because every job runs [`waltz_core::Supervisor::compile_indexed`]
//! against the same compiler a local batch would use, a served batch is
//! *bit-for-bit* the in-process one: same artifacts, same typed errors,
//! same cache behaviour (a warm resubmission replays with
//! [`waltz_core::JobReport::cached`] set and all seven passes skipped).
//!
//! # Example
//!
//! ```
//! use waltz_circuit::Circuit;
//! use waltz_core::{Compiler, Strategy, Target};
//! use waltz_serve::{ServeClient, Server, ServerConfig};
//!
//! // Server side: wrap a compiler, bind an ephemeral port.
//! let compiler = Compiler::new(Target::paper(Strategy::qubit_only()));
//! let server = Server::bind("127.0.0.1:0", compiler, ServerConfig::default()).unwrap();
//!
//! // Client side: submit a batch, read ordered reports.
//! let mut client = ServeClient::connect(server.local_addr().to_string()).unwrap();
//! let mut c = Circuit::new(2);
//! c.h(0).cx(0, 1);
//! let batch = vec![c.clone(), c];
//! let reports = client.compile_batch(batch.clone()).unwrap();
//! assert!(reports.iter().all(|r| r.result.is_ok()));
//! // Resubmitting the batch replays every job from the shared artifact
//! // cache. (Within the first batch the workers may compile both copies
//! // at once, so neither is guaranteed to be a hit.)
//! let warm = client.compile_batch(batch).unwrap();
//! assert!(warm.iter().all(|r| r.cached));
//! server.shutdown();
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod protocol;
pub mod server;
pub mod stats;

pub use client::{BatchEvent, BatchStream, ClientError, RetryPolicy, ServeClient, SimulateResult};
pub use protocol::{
    ArtifactSource, BatchOptions, ErrorCode, ErrorFrame, FrameError, JobPhase, Request, Response,
    FRAME_MAGIC, MAX_FRAME_BYTES, MAX_SIM_TRAJECTORIES, PROTOCOL_VERSION,
};
pub use server::{LoadWatermark, Server, ServerConfig};
pub use stats::{ServerStats, StatsSnapshot};
