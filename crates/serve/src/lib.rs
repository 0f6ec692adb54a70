//! # dropback-serve: checkpoint-backed inference serving
//!
//! The paper's deployment story is that a trained network ships as just
//! `(seed, k tracked entries)` — a sparse checkpoint small enough to
//! hot-load and swap at will. This crate turns that artifact into a
//! request-serving path: a multi-threaded HTTP/1.1 server hand-rolled
//! over `std::net` (the workspace has no external dependencies) that
//!
//! * loads snapshots through [`dropback::CheckpointStore`]
//!   (newest-valid-first, reusing the corruption fallback),
//! * densifies each generation once — every untracked weight from
//!   `regen(seed, index)`, the `k` entries written over them — and
//!   answers every batch with the trainer's own eval forward, so served
//!   logits are bit-identical to the trainer's ([`model`]),
//! * **hot-swaps** the live model atomically when a newer snapshot
//!   appears: in-flight requests finish on the old model, new requests
//!   see the new one ([`watcher`]),
//! * **micro-batches** concurrent requests through a bounded queue that
//!   flushes on batch-size or deadline into a single batched forward on
//!   the worker pool ([`batch`]),
//! * reports latency, throughput, batch-fill, and swap counters through
//!   the existing telemetry stack (`serve.*` metrics, spans visible in
//!   `dropback-trace`), threads a request id through admission → queue →
//!   batch → reply-write as Chrome **async** trace lanes, feeds the
//!   always-on flight recorder, and can write a structured JSONL access
//!   log — one record per request, keyed by the same id ([`log`]; see
//!   `docs/OBSERVABILITY.md`),
//! * **defends itself under overload**: a connection cap and bounded
//!   queue shed excess load with `503` + `Retry-After`, every request
//!   carries a deadline that sheds it *before* inference once expired,
//!   socket timeouts bound slow-loris clients, and shutdown is a
//!   two-phase graceful drain ([`server`], `serve.shed.*` counters),
//! * and proves all of that under **deterministic fault injection**: a
//!   seeded [`dropback::FaultPlan`] can wrap every accepted socket in a
//!   [`dropback::FaultStream`] (stalls, resets, dribble, bit-flips) via
//!   [`rt::ChaosHook`] — see `crates/serve/tests/chaos.rs`.
//!
//! Two modules deliberately own otherwise-forbidden capabilities, and the
//! `dropback-lint` allowlists name them file-by-file: [`clock`] is the
//! only serve module allowed to read `Instant` (deadlines), and [`rt`] is
//! the only one allowed to create threads (accept loop, connection
//! handlers, batch worker, watcher). Everything else in the crate stays
//! under the same determinism lints as the training stack.
//!
//! See `docs/SERVING.md` for the protocol, the knobs, and how to read
//! `BENCH_serve.json`.

#![deny(missing_docs)]

pub mod batch;
pub mod client;
pub mod clock;
pub mod error;
pub mod http;
pub mod log;
pub mod model;
pub mod rt;
pub mod server;
pub mod watcher;

pub use batch::{BatchConfig, BatchQueue, InferReply};
pub use client::HttpClient;
pub use clock::{Backoff, Deadline};
pub use error::ServeError;
pub use http::{Request, StatusLine};
pub use log::AccessLog;
pub use model::{ModelSlot, ServingModel};
pub use rt::ChaosHook;
pub use server::{Server, ServerConfig};
