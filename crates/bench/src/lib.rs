//! # ats-bench
//!
//! The closed-form stress-trace generator ([`stress`]) that the streaming
//! analysis path is measured on: `ats trace gen` writes its files, `ats
//! bench trace` gates on them, and the `perfbench` package's `stream`
//! workload analyzes one. The `ats` binary holds every command.

pub mod stress;
