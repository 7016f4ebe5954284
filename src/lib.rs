//! # ATS-RS — facade crate
//!
//! Re-exports the full public API of the APART Test Suite reproduction so
//! that examples and downstream users can depend on a single crate, and
//! holds the `ats` command line: [`cli`] parses it and dispatches to the
//! subcommands, which regenerate the paper's figures, run the extended
//! experiments and the CI gates, and serve campaigns over HTTP.
//!
//! See the workspace README for the architecture overview and DESIGN.md for
//! the paper-to-module mapping.

pub use ats_analyzer as analyzer;
pub use ats_apps as apps;
pub use ats_core as core;
pub use ats_fuzz as fuzz;
pub use ats_harness as harness;
pub use ats_mpi as mpi;
pub use ats_obs as obs;
pub use ats_omp as omp;
pub use ats_runtime as runtime;
pub use ats_serve as serve;
pub use ats_store as store;
pub use ats_trace as trace;

mod bench;
pub mod cli;
mod commands;
mod experiments;
mod figures;

#[cfg(test)]
mod tests {
    use crate::figures::{figure32_runs, figure33_trace, figure34_trace, paper_session};

    #[test]
    fn figure_traces_are_wellformed() {
        let session = paper_session(8).build();
        for (_, t) in figure32_runs(&session).unwrap() {
            assert!(crate::trace::check_wellformed(&t).is_empty());
        }
        assert!(crate::trace::check_wellformed(&figure33_trace(&session)).is_empty());
        let wide = paper_session(16).build();
        assert!(crate::trace::check_wellformed(&figure34_trace(&wide)).is_empty());
    }

    #[test]
    fn figure34_uses_three_communicators() {
        let t = figure34_trace(&paper_session(8).build());
        // world + two halves.
        assert!(t.comms.len() >= 3, "comms: {:?}", t.comms);
    }

    #[test]
    fn trace_artifacts_round_trip() {
        let trace = figure34_trace(&paper_session(4).build());
        let dir = ats_testutil::TempDir::new("ats-artifact");
        let path =
            crate::cli::write_trace_artifact(&trace, dir.path().to_str().unwrap(), "figure34")
                .unwrap();
        assert!(path.ends_with("figure34.atsb"), "{}", path.display());
        let loaded = crate::trace::io::read_path(&path).unwrap();
        assert_eq!(loaded.locations, trace.locations);
    }
}
