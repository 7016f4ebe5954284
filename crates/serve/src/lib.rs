//! `ats-serve`: a multi-tenant campaign service over the suite's
//! [`Session`](ats_harness::Session) API.
//!
//! The offline toolchain runs scenarios, analyzes traces and caches the
//! artifacts; this crate puts that pipeline behind a small, stable,
//! versioned HTTP surface so many clients can share one warm artifact
//! store:
//!
//! - `POST /v1/analyze` — one scenario text line in, the frozen
//!   `ats-report/1` report bytes out, read-through against the
//!   content-addressed store (`x-ats-cache: hit|miss`, `x-ats-key`).
//! - `POST /v1/campaign` — one scenario text line per spec in,
//!   `ats-serve-row/1` JSONL rows streamed back as each pool batch
//!   completes.
//! - `GET /v1/artifacts/{key}/{file}` — raw stored artifacts
//!   (`report.json`, `trace.atsb`).
//! - `GET /metrics` — Prometheus text for the shared session registry.
//!
//! Robustness is part of the API: admission is bounded (connections past
//! [`ServeConfig::max_conns`] are shed with an explicit `429`), every
//! tenant has an independent in-flight budget, socket timeouts bound
//! slow clients, and shutdown drains admitted requests before closing.
//! The wire documents are canonical JSON, so every response is
//! byte-comparable with the offline artifacts — `ats bench serve` gates on
//! exactly that.

pub mod api;
pub mod client;
pub mod http;
mod poll;
pub mod server;
pub mod tenant;
pub mod wire;

pub use api::AppState;
pub use client::{AnalyzeResult, Client, Response};
pub use server::{start, ServeConfig, ServerHandle};
pub use tenant::{TenantGov, TenantPermit, DEFAULT_TENANT};
pub use wire::{RowDoc, ERROR_SCHEMA, KEY_SCHEMA, ROW_SCHEMA, SERVE_SCHEMA};
