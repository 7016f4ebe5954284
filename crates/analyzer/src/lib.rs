//! # ats-analyzer
//!
//! An EXPERT-style automatic performance analyzer.
//!
//! The ATS paper tests *tools*; without a tool in the loop, positive and
//! negative correctness cannot be measured. This crate is that tool: a
//! trace-based pattern analyzer modeled on EXPERT/KOJAK (the paper's
//! Figure 3.5 instrument, by the same research group):
//!
//! 1. [`extract()`](extract::extract) reconstructs call paths and typed
//!    operation records from the event trace;
//! 2. [`patterns`] implements the compound-event definitions of the
//!    ASL/EXPERT property catalog (Late Sender, Late Receiver, Wait at
//!    Barrier, Wait at N×N, Late Broadcast/Scatter, Early Reduce/Gather,
//!    OpenMP imbalance/barrier/critical contention, MPI setup overhead);
//! 3. the [`SeverityCube`] accumulates waiting
//!    times over property × call path × location;
//! 4. the [`AnalysisReport`] ranks findings by
//!    EXPERT's severity model (waiting time / total allocation time) and
//!    renders the tri-pane text view.
//!
//! ```
//! use ats_analyzer::{analyze, AnalyzerConfig};
//! use ats_core::{properties::mpi_p2p, BaseComm};
//! use ats_mpi::SimConfig;
//!
//! let trace = ats_mpi::run(SimConfig::with_procs(2), |p| {
//!     let world = p.comm_world();
//!     mpi_p2p::late_sender(p, &BaseComm::default(), 0.002, 0.02, 2, &world);
//! });
//! let report = analyze(&trace, &AnalyzerConfig::default());
//! assert!(report.severity_of("LateSender") > 0.0);
//! ```

/// Version of the analysis semantics (pattern definitions, severity
/// model, report layout). Any change that can alter a report for the same
/// trace must bump this — cached analyzer outputs are keyed on it, so a
/// bump invalidates every cached report without touching the store.
/// (3: report export moved to the frozen `ats-report/1` wire layout.)
pub const ANALYSIS_VERSION: u32 = 3;

pub mod analyzer;
pub mod asl;
pub mod callpath;
pub mod extract;
pub mod ingest;
pub mod patterns;
pub mod phases;
pub mod property;
pub mod report;
pub mod severity;
pub mod wire;

pub use analyzer::{analyze, AnalyzerConfig};
pub use callpath::{PathId, PathTable};
pub use ingest::{analyze_path, analyze_path_streaming, analyze_stream, StreamStats};
pub use phases::{analyze_phases, PhaseReport, PhaseSeries};
pub use property::PropertyKind;
pub use report::{AnalysisReport, Finding};
pub use severity::SeverityCube;
pub use wire::{FindingDoc, ReportDoc, REPORT_SCHEMA};

// Convenience re-exports for the ASL layer.
pub use asl::{default_property_set, AslFinding, PropertySet};
