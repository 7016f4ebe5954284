//! The paper's evaluation figures. The paper has no numeric tables; its
//! evaluation artifacts are four figures:
//!
//! | id   | paper artifact | command |
//! |------|----------------|---------|
//! | F3.2 | Vampir timelines of two single-property runs of `imbalance_at_mpi_barrier` with different parameters | `ats figure 32` |
//! | F3.3 | timeline of a composite program calling all MPI property functions | `ats figure 33` |
//! | F3.4 | timeline of two communicators running different property sets in parallel | `ats figure 34` |
//! | F3.5 | EXPERT's analysis of the F3.4 program (property/call/location panes) | `ats figure 35` |

use crate::analyzer::{analyze_path, AnalyzerConfig};
use crate::cli::{failed, write_file, write_trace_artifact, CliError, CommonArgs};
use crate::core::CompositeParams;
use crate::harness::registry::{run_composite_all_mpi, run_composite_two_comms};
use crate::harness::{timeline, ParamValues, Session, SessionBuilder};
use crate::trace::Trace;
use std::path::PathBuf;

/// A figure session: the paper's programs at reproduction scale, on the
/// realistic machine model with visible init/finalize, as in the Vampir
/// shots.
pub(crate) fn paper_session(nprocs: usize) -> SessionBuilder {
    Session::builder().procs(nprocs).realistic()
}

/// The Figure 3.2 runs: `imbalance_at_mpi_barrier` under two different
/// parameter sets (distribution shape and severity), as the paper's two
/// timelines show. Returns `(label, trace)` pairs.
pub(crate) fn figure32_runs(session: &Session) -> Result<Vec<(String, Trace)>, CliError> {
    let name = "imbalance_at_mpi_barrier";
    let spec = crate::harness::spec_of(name).map_err(failed)?;
    let configs = [
        ("block2 low severity", "df=block2:low=0.01,high=0.03"),
        ("linear high severity", "df=linear:low=0.01,high=0.09"),
    ];
    configs
        .iter()
        .map(|(label, df)| {
            let params = ParamValues::from_args(spec, &[df, "r=4"]).map_err(failed)?;
            let trace = session.run(name, &params).map_err(failed)?;
            Ok(((*label).to_owned(), trace))
        })
        .collect()
}

/// The composite parameters of Figures 3.3–3.5.
fn composite_params() -> CompositeParams {
    CompositeParams {
        basework: 0.005,
        extrawork: 0.02,
        reps: 2,
        ..Default::default()
    }
}

/// The Figure 3.3 program: all MPI property functions in sequence.
pub(crate) fn figure33_trace(session: &Session) -> Trace {
    run_composite_all_mpi(&composite_params(), session.opts())
}

/// The Figure 3.4/3.5 program: two communicators running different
/// property sets in parallel (16 ranks, as in the paper's screenshots).
pub(crate) fn figure34_trace(session: &Session) -> Trace {
    run_composite_two_comms(&composite_params(), session.opts())
}

/// Write the `--svg` timeline and the `--trace-dir` ATSB file of one
/// figure trace, printing each path; the ATSB path joins `artifacts`.
fn write_outputs(
    args: &CommonArgs,
    session: &Session,
    trace: &Trace,
    stem: &str,
    columns: usize,
    artifacts: &mut Vec<PathBuf>,
) -> Result<(), CliError> {
    if let Some(dir) = args.value("svg") {
        let path = format!("{dir}/{stem}.svg");
        write_file(&path, timeline::render_svg(trace, columns))?;
        outln!("wrote {path}");
    }
    if let Some(dir) = args.value("trace-dir") {
        let path = write_trace_artifact(session, trace, dir, stem)?;
        outln!("wrote {}", path.display());
        artifacts.push(path);
    }
    Ok(())
}

/// `ats figure 32`: Vampir timeline displays of two executions of the
/// single-property test program for `imbalance_at_mpi_barrier` with
/// different parameters.
pub(crate) fn figure32(args: &CommonArgs) -> Result<bool, CliError> {
    let nprocs = args.pos_or(0, 8usize)?;
    let session = args
        .session(paper_session(nprocs).analyzer(AnalyzerConfig::default().with_setup_overhead()))?;
    outln!("=== Figure 3.2: single-property test program, two parameterizations ===");
    outln!("(program: imbalance_at_mpi_barrier; {nprocs} ranks; realistic model");
    outln!(" with visible MPI_Init/MPI_Finalize phases, as in the paper)\n");
    let mut artifacts = Vec::new();
    for (idx, (label, trace)) in figure32_runs(&session)?.into_iter().enumerate() {
        outln!("--- run {}: {label} ---", idx + 1);
        out!("{}", timeline::render_text(&trace, 100));
        let report = session.analyze(&trace);
        outln!(
            "WaitAtBarrier severity: {:.2}%   MpiSetupOverhead severity: {:.2}%",
            report.severity_of("WaitAtBarrier") * 100.0,
            report.severity_of("MpiSetupOverhead") * 100.0,
        );
        outln!(
            "(the paper notes the init/finalize overhead property is 'hard to avoid\n in the view of the small sizes of the test programs')\n"
        );
        let stem = format!("figure32_run{}", idx + 1);
        write_outputs(args, &session, &trace, &stem, 400, &mut artifacts)?;
    }
    args.emit(&session, "figure32", &artifacts)?;
    Ok(true)
}

/// `ats figure 33`: a timeline of the composite test program that calls
/// all MPI property functions with staggered severities — "to quickly
/// determine how many different performance properties can be detected
/// by a performance tool".
pub(crate) fn figure33(args: &CommonArgs) -> Result<bool, CliError> {
    let session = args.session(paper_session(args.pos_or(0, 8)?))?;
    outln!("=== Figure 3.3: all MPI property functions in one program ===\n");
    let trace = figure33_trace(&session);
    out!("{}", timeline::render_text(&trace, 120));
    let report = session.analyze(&trace);
    outln!("\nproperties detectable in this single program:");
    for prop in [
        "LateSender",
        "LateReceiver",
        "WaitAtBarrier",
        "WaitAtNxN",
        "LateBroadcast",
        "LateScatter",
        "EarlyReduce",
        "EarlyGather",
    ] {
        outln!(
            "  {:<16} severity {:>7.3}%",
            prop,
            report.severity_of(prop) * 100.0
        );
    }
    let mut artifacts = Vec::new();
    write_outputs(args, &session, &trace, "figure33", 500, &mut artifacts)?;
    args.emit(&session, "figure33", &artifacts)?;
    Ok(true)
}

/// `ats figure 34`: two collections of MPI property functions executing
/// in parallel in different communicators (lower half: point-to-point
/// set; upper half: collective set).
pub(crate) fn figure34(args: &CommonArgs) -> Result<bool, CliError> {
    let nprocs = args.pos_or(0, 16usize)?;
    let session = args.session(paper_session(nprocs))?;
    outln!("=== Figure 3.4: two communicators, different property sets in parallel ===");
    outln!(
        "(lower ranks 0..{}: late_sender + late_receiver;",
        nprocs / 2
    );
    outln!(
        " upper ranks {}..{nprocs}: late_broadcast(root 1) + early_reduce + barrier imbalance)\n",
        nprocs / 2
    );
    let trace = figure34_trace(&session);
    out!("{}", timeline::render_text(&trace, 120));
    outln!("\ncommunicators recorded in the trace:");
    for c in &trace.comms {
        outln!("  comm {:>2}: members {:?}", c.id, c.members);
    }
    let mut artifacts = Vec::new();
    write_outputs(args, &session, &trace, "figure34", 500, &mut artifacts)?;
    args.emit(&session, "figure34", &artifacts)?;
    Ok(true)
}

/// `ats figure 35`: the EXPERT-style automatic analysis of the
/// two-communicator composite program — property pane, call-path pane,
/// and location pane. The paper's check: EXPERT finds *Late Broadcast*,
/// locates it at the `MPI_Bcast()` call inside `late_broadcast()`, and
/// attributes it to the upper communicator's non-root ranks
/// (communicator-local root 1). With `--trace FILE` the analysis runs on
/// a stored ATSB trace (one `ats figure 34 --trace-dir` wrote, say)
/// instead of re-executing the program.
pub(crate) fn figure35(args: &CommonArgs) -> Result<bool, CliError> {
    let nprocs_arg = args.pos_or(0, 16usize)?;
    let session = args.session(paper_session(nprocs_arg))?;
    let (trace, report, nprocs) = match args.value("trace") {
        Some(path) => {
            let (trace, report) = analyze_path(path, session.analyzer_config())
                .map_err(|e| failed(format!("cannot read {path}: {e}")))?;
            let nprocs = trace
                .locations
                .iter()
                .map(|l| l.location.rank as usize + 1)
                .max()
                .unwrap_or(0);
            (trace, report, nprocs)
        }
        None => {
            let trace = figure34_trace(&session);
            let report = session.analyze(&trace);
            (trace, report, nprocs_arg)
        }
    };
    outln!("{}", report.render(&trace));

    outln!("\n=== paper's correctness checks for this figure ===");
    let hits = report.findings_for("LateBroadcast");
    let localized = hits
        .iter()
        .any(|f| f.call_path.contains("late_broadcast") && f.call_path.contains("MPI_Bcast"));
    outln!(
        "LateBroadcast detected:                    {}",
        !hits.is_empty()
    );
    outln!("localized at late_broadcast/MPI_Bcast:     {localized}");
    let locs = report.locations_for("LateBroadcast");
    let expected: Vec<_> = (nprocs as u32 / 2..nprocs as u32)
        .filter(|&r| r != nprocs as u32 / 2 + 1)
        .collect();
    let got: Vec<u32> = locs.iter().map(|l| l.rank).collect();
    outln!("blamed ranks: {got:?}");
    outln!("expected (upper half minus its local root): {expected:?}");
    outln!(
        "machine localization correct:              {}",
        got == expected
    );
    args.emit(&session, "figure35", &[])?;
    Ok(true)
}
