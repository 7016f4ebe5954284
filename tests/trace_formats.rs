//! The on-disk trace format contract: analysis results are independent of
//! how the trace traveled — in memory, or through any of the ATSB codec's
//! paths (whole-buffer, streaming writer/reader, file on disk) — the
//! paper's figure-3.5 localization survives a binary round-trip, and
//! pooled event buffers never change a sweep row.

use ats::analyzer::{analyze, AnalyzerConfig};
use ats::core::CompositeParams;
use ats::harness::cache::row_to_json;
use ats::harness::experiment::{Experiment, Sweep};
use ats::harness::registry::run_composite_two_comms;
use ats::harness::{ExperimentRow, RunOpts};
use ats::trace::{binfmt, io, Trace, TracePool};

/// The Figure 3.4 composite: two communicators running different property
/// sets in parallel, at reproduction scale (realistic model, visible
/// init/finalize — the same program `ats figure 34` renders).
fn composite(nprocs: usize) -> Trace {
    let params = CompositeParams {
        basework: 0.005,
        extrawork: 0.02,
        reps: 2,
        ..Default::default()
    };
    run_composite_two_comms(&params, &RunOpts::default().procs(nprocs).realistic())
}

fn report_json(trace: &Trace) -> String {
    analyze(trace, &AnalyzerConfig::default()).to_json()
}

#[test]
fn analysis_is_identical_in_memory_and_through_atsb() {
    let trace = composite(8);
    let direct = report_json(&trace);

    let mut binary = Vec::new();
    binfmt::write_binary(&trace, &mut binary).unwrap();
    let streamed = binfmt::read_binary(binary.as_slice()).unwrap();
    let decoded = binfmt::decode(&binary).unwrap();
    let dir = ats_testutil::TempDir::new("ats-trace-formats");
    let path = dir.file("composite.atsb");
    std::fs::write(&path, &binary).unwrap();
    let from_disk = io::read_path(&path).unwrap();

    for (label, loaded) in [
        ("read_binary", &streamed),
        ("decode", &decoded),
        ("read_path", &from_disk),
    ] {
        assert_eq!(loaded.locations, trace.locations, "{label}: events differ");
        assert_eq!(loaded.comms, trace.comms, "{label}: comms differ");
        assert_eq!(
            report_json(loaded),
            direct,
            "{label}: analysis diverges from the in-memory trace"
        );
    }
}

#[test]
fn figure35_localization_survives_a_binary_round_trip() {
    let nprocs = 16usize;
    let trace = composite(nprocs);
    let mut binary = Vec::new();
    binfmt::write_binary(&trace, &mut binary).unwrap();
    let trace = binfmt::read_binary(binary.as_slice()).unwrap();

    let report = analyze(&trace, &AnalyzerConfig::default());
    let hits = report.findings_for("LateBroadcast");
    assert!(!hits.is_empty(), "LateBroadcast not detected");
    assert!(
        hits.iter()
            .any(|f| f.call_path.contains("late_broadcast") && f.call_path.contains("MPI_Bcast")),
        "not localized at late_broadcast/MPI_Bcast"
    );
    let got: Vec<u32> = report
        .locations_for("LateBroadcast")
        .iter()
        .map(|l| l.rank)
        .collect();
    let expected: Vec<u32> = (nprocs as u32 / 2..nprocs as u32)
        .filter(|&r| r != nprocs as u32 / 2 + 1)
        .collect();
    assert_eq!(
        got, expected,
        "blamed ranks differ after the binary round-trip"
    );
}

fn sweep_rows(jobs: usize, pool: Option<TracePool>) -> Vec<String> {
    let mut opts = RunOpts::default().jobs(jobs);
    if let Some(p) = pool {
        opts = opts.trace_pool(p);
    }
    Experiment::new("late_sender")
        .procs_grid([2, 4])
        .sweep(Sweep::seconds("extrawork", [0.005, 0.02]))
        .opts(opts)
        .run_with_stats()
        .expect("runnable")
        .0
        .iter()
        .map(|r: &ExperimentRow| row_to_json(r).render())
        .collect()
}

#[test]
fn pooled_sweep_rows_are_byte_identical_for_any_jobs_value() {
    let baseline = sweep_rows(1, None);
    let shared = TracePool::new();
    for jobs in [1usize, 8] {
        let rows = sweep_rows(jobs, Some(shared.clone()));
        assert_eq!(
            rows, baseline,
            "jobs={jobs}: pooled rows diverge from the unpooled serial baseline"
        );
    }
    // The shared pool really got exercised: the second sweep reused
    // buffers the first one recycled.
    let stats = shared.stats();
    assert!(stats.recycled > 0, "{stats:?}");
    assert!(stats.hits > 0, "{stats:?}");
}
