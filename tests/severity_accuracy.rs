//! Exact severity accounting: under the zero-cost machine model, the
//! analyzer's total waiting time for a catalog entry's expected property
//! must equal the closed-form wait its parameters program — not merely
//! correlate with it. This is the strongest form of the paper's
//! positive-correctness requirement ("the relative severity of the
//! properties can be controlled by the user").
//!
//! The closed forms are the suite's one model, `ats_fuzz::model::
//! nominal_wait`, which the fuzz oracle also scores against; each test
//! here checks it on hand-picked (entry, parameters, ranks) points.

use ats::analyzer::{analyze, AnalyzerConfig};
use ats::fuzz::model::nominal_wait;
use ats::harness::{run_single, ParamValues, RunOpts};

const EPS: f64 = 1e-9;

/// Run catalog entry `name` with `args` on `nprocs` ranks, and check the
/// analyzer's total wait for the entry's expected property against the
/// model's wait for a group of `nprocs` (one thread team for the pure
/// OpenMP entries, which run at `nprocs = 1`).
fn assert_exact(name: &str, args: &[&str], nprocs: usize) {
    let spec = ats::core::catalog::find(name).unwrap();
    let property = spec.expected_property.expect("a positive entry");
    let params = ParamValues::from_args(spec, args).unwrap();
    let trace = run_single(name, &params, &RunOpts::default().procs(nprocs)).unwrap();
    let report = analyze(&trace, &AnalyzerConfig::default().threshold(0.0));
    let got: f64 = report
        .findings_for(property)
        .iter()
        .map(|f| f.wait.as_secs())
        .sum();
    let expect = nominal_wait(name, &params, nprocs).expect("a positive entry has a model");
    assert!(
        (got - expect).abs() < EPS,
        "{name} {args:?} on {nprocs} ranks: {property} {got} vs model {expect}"
    );
}

#[test]
fn late_sender_wait_is_pairs_times_reps_times_extra() {
    // Odd rank counts leave the last rank unpaired.
    for nprocs in [2, 4, 6, 7] {
        assert_exact(
            "late_sender",
            &["basework=0.003", "extrawork=0.025", "r=4"],
            nprocs,
        );
    }
}

#[test]
fn late_receiver_wait_mirrors_late_sender() {
    assert_exact(
        "late_receiver",
        &["basework=0.002", "extrawork=0.018", "r=3"],
        4,
    );
}

#[test]
fn barrier_wait_is_the_sum_of_gaps_to_the_slowest() {
    assert_exact(
        "imbalance_at_mpi_barrier",
        &["df=linear:low=0.004,high=0.036", "r=3"],
        8,
    );
}

#[test]
fn late_broadcast_wait_is_members_times_extra() {
    assert_exact(
        "late_broadcast",
        &["extrawork=0.03", "basework=0.005", "root=3", "r=2"],
        8,
    );
}

#[test]
fn early_reduce_wait_is_root_only_extra() {
    assert_exact(
        "early_reduce",
        &["baseextrawork=0.022", "rootwork=0.004", "root=2", "r=3"],
        6,
    );
}

#[test]
fn alltoall_wait_matches_peak_distribution() {
    assert_exact(
        "imbalance_at_mpi_alltoall",
        &["df=peak:low=0.002,high=0.03,n=1", "r=2"],
        5,
    );
}

#[test]
fn omp_barrier_wait_matches_cyclic_distribution() {
    assert_exact(
        "imbalance_at_omp_barrier",
        &["df=cyclic2:low=0.005,high=0.02", "nthreads=4", "r=3"],
        1,
    );
}

#[test]
fn critical_contention_wait_is_the_serialization_triangle() {
    // One repetition is the first round's triangle alone; three add two
    // full rounds.
    for r in ["r=1", "r=3"] {
        assert_exact(
            "omp_critical_contention",
            &["bodywork=0.012", "outsidework=0.0", "nthreads=5", r],
            1,
        );
    }
}

#[test]
fn wrong_order_wait_equals_the_programmed_delay() {
    assert_exact(
        "messages_in_wrong_order",
        &["delay=0.02", "basework=0.003", "r=2"],
        4,
    );
}

#[test]
fn progressive_barrier_wait_sums_the_growth_series() {
    assert_exact(
        "progressive_imbalance_at_mpi_barrier",
        &["df=block2:low=0.002,high=0.014", "growth=0.5", "r=4"],
        4,
    );
}

#[test]
fn serial_initialization_wait_is_serialwork_per_nonroot() {
    assert_exact(
        "serial_initialization",
        &["extrawork=0.04", "basework=0.005", "root=0"],
        5,
    );
}
