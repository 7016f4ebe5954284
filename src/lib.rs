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

/// `print!` for the command line: writes through [`cli::write_stdout`],
/// so a closed stdout ends the command instead of panicking.
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::cli::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` for the command line (see `out!`).
macro_rules! outln {
    () => {
        $crate::cli::write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::cli::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// `eprintln!` for the command line: writes through
/// [`cli::write_stderr`], so a closed stderr never panics.
macro_rules! errln {
    ($($arg:tt)*) => {
        $crate::cli::write_stderr(format_args!("{}\n", format_args!($($arg)*)))
    };
}

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
        let session = paper_session(4).obs(crate::obs::ObsConfig::fresh()).build();
        let trace = figure34_trace(&session);
        let dir = ats_testutil::TempDir::new("ats-artifact");
        let dir = dir.path().to_str().unwrap();
        let path = crate::cli::write_trace_artifact(&session, &trace, dir, "figure34").unwrap();
        assert!(path.ends_with("figure34.atsb"), "{}", path.display());
        let loaded = crate::trace::io::read_path(&path).unwrap();
        assert_eq!(loaded.locations, trace.locations);
        // The session counts the bytes it wrote.
        let written = session.obs().unwrap().trace.binary_bytes_encoded.get();
        assert_eq!(written, std::fs::metadata(&path).unwrap().len());
    }
}
