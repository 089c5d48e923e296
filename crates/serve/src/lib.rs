//! **algoprof-serve** — the persistent profiling service.
//!
//! A long-running daemon (`algoprof serve`) that accepts profiling jobs
//! over a minimal hand-rolled HTTP/1.1 + JSON protocol, executes them on
//! a bounded-queue worker pool, and memoizes results in a
//! content-addressed cache keyed by [`JobSpec::cache_key`]. Because job
//! execution is a pure function of the spec (see `algoprof::jobs`), the
//! daemon's responses are byte-identical to the one-shot CLI — at any
//! worker count, from any client, cached or freshly computed.
//!
//! The crate also owns the `algoprof` CLI binary (`src/bin/algoprof.rs`):
//! the one-shot subcommands plus `serve` and `submit`. The binary lives
//! here rather than in the core crate so it can link the service layer
//! without a dependency cycle.
//!
//! Everything is `std`-only: HTTP framing ([`http`]), JSON ([`algoprof_vm::json`]),
//! and the cache's SHA-256 (in `algoprof::hash`) are from scratch, like
//! the rest of this offline reproduction.
//!
//! See `docs/SERVE.md` for the wire protocol and determinism contract.
//!
//! [`JobSpec::cache_key`]: algoprof::JobSpec::cache_key

pub mod api;
pub mod cache;
pub mod client;
pub mod http;
pub mod server;

pub use cache::{CacheStats, ResultCache};
pub use client::{ClientError, JobStatus, ServerAddr, StreamReport, SubmitResponse};
pub use server::{Server, ServerConfig};
