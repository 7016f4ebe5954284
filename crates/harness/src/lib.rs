//! # ats-harness
//!
//! Test-program generation, experiment management, rendering and
//! validation — the outer ring of the ATS framework.
//!
//! * [`params`] / [`registry`]: typed command-line-style parameters and
//!   the dispatcher that turns any catalog entry into an executed test
//!   program (the runtime half of the paper's PDT-based generator);
//! * [`generate`]: the source-code half — emits standalone Rust `main`s
//!   for single-property test programs from the catalog signatures;
//! * [`experiment`]: parameter sweeps and result tables (the ZENTURIO
//!   role in the paper's tooling sketch), executed concurrently on the
//!   [`pool`] worker pool with an oversubscription guard and
//!   deterministic (combo-ordered) results;
//! * [`cache`]: the incremental half of the experiment engine — stable
//!   cache keys over everything that determines a result (and nothing
//!   that merely schedules it), so sweeps replay known configurations
//!   from the [`ats_store`] artifact store and execute only new ones;
//! * [`timeline`]: Vampir-style timeline rendering (text and SVG) used to
//!   regenerate the paper's Figures 3.2–3.4;
//! * [`validation`]: the semantics-preservation procedure from the
//!   paper's Chapter 2 — run kernels with and without instrumentation,
//!   compare results, report overhead;
//! * [`resources`]: the paper's chapter-2 suite collection as data;
//! * [`correctness`]: positive/negative correctness scoring of an
//!   analyzer against the catalog's expectations, read from the
//!   experiment engine's rows.

pub mod cache;
pub mod correctness;
pub mod experiment;
pub mod generate;
pub mod params;
pub mod pool;
pub mod profile;
pub mod registry;
pub mod resources;
pub mod session;
pub mod timeline;
pub mod validation;

pub use correctness::SuiteSummary;
pub use experiment::{Experiment, ExperimentRow, ExperimentStats, Sweep};
pub use params::{ParamValue, ParamValues};
pub use registry::{run_in_comm, run_single, spec_of, RunOpts};
pub use session::{Session, SessionBuilder};
