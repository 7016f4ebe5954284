//! The parallel experiment engine's contract: any worker count yields
//! the same rows in the same order, and the oversubscription guard keeps
//! the OS threads the configurations occupy within the thread budget —
//! so sweeps can saturate the host without changing a single result.

use ats::harness::cache::row_to_json;
use ats::harness::experiment::{Experiment, Sweep};
use ats::harness::{pool, ExperimentRow, RunOpts};

/// A severity × nprocs sweep per ISSUE 1: `late_sender` sweeps its
/// severity knob, `imbalance_at_mpi_barrier` its repetition count, both
/// across a process grid.
fn epos_sweep(property: &str, jobs: usize) -> Experiment {
    let e = Experiment::new(property).procs_grid([2, 4, 8]);
    let e = match property {
        "late_sender" => e.sweep(Sweep::seconds("extrawork", [0.005, 0.01, 0.02, 0.04])),
        "imbalance_at_mpi_barrier" => e.sweep(Sweep::counts("r", [1, 2, 4])),
        other => panic!("no sweep shape for {other}"),
    };
    e.opts(RunOpts::default().jobs(jobs))
}

fn rendered(rows: &[ExperimentRow]) -> Vec<String> {
    rows.iter().map(|r| row_to_json(r).render()).collect()
}

#[test]
fn jobs_one_and_jobs_eight_rows_are_identical() {
    for property in ["late_sender", "imbalance_at_mpi_barrier"] {
        let (serial_rows, serial_stats) = epos_sweep(property, 1).run_with_stats().unwrap();
        let (parallel_rows, parallel_stats) = epos_sweep(property, 8).run_with_stats().unwrap();
        assert_eq!(serial_stats.jobs, 1);
        assert!(parallel_stats.jobs > 1, "jobs=8 must run a real pool");
        let knob_values = if property == "late_sender" { 4 } else { 3 };
        assert_eq!(
            serial_rows.len(),
            3 * knob_values,
            "{property}: 3 procs × {knob_values} knob values"
        );
        // Same order, same severities — byte-identical serialized rows.
        assert_eq!(
            rendered(&serial_rows),
            rendered(&parallel_rows),
            "{property}: parallel rows diverge from serial rows"
        );
        // The sweep really sweeps: severities are positive everywhere and
        // the knob ordering survives within each process count.
        for r in &serial_rows {
            assert!(r.detected_severity > 0.0, "{property}: {r:?}");
            assert!(r.localized, "{property}: {r:?}");
        }
    }
}

#[test]
fn event_backend_frees_the_guard_from_rank_width() {
    // Where the coroutine carrier runs, every configuration runs its
    // ranks on the worker's own thread, so the guard grants one worker
    // per configuration — bounded by the combo count, not by nprocs.
    let (_, stats) = epos_sweep("late_sender", 64).run_with_stats().unwrap();
    assert_eq!(stats.max_nprocs, 8);
    if ats::mpi::SimBackend::event_supported() {
        assert_eq!(stats.jobs, 12, "one slot per config: min(64, 12 combos)");
    }
}

#[test]
fn auto_jobs_resolves_to_host_parallelism() {
    let (_, stats) = epos_sweep("imbalance_at_mpi_barrier", 0)
        .run_with_stats()
        .unwrap();
    assert_eq!(stats.jobs_requested, pool::auto_jobs());
    assert!(stats.jobs >= 1);
    let per_config = stats.config_wall_secs.len();
    assert_eq!(per_config, stats.configs);
    assert!(stats.config_wall_secs.iter().all(|s| *s >= 0.0));
}
