//! Reproducibility: a test suite whose purpose is producing *known* timing
//! patterns must produce bit-identical traces across runs — the property
//! the paper's wall-clock calibration could only approximate, strengthened
//! here by virtual time.

use ats::harness::{run_single, ParamValue, ParamValues, RunOpts};
use ats::trace::Trace;

/// Catalog entries whose traces must be bit-identical across repeated runs.
fn deterministic_entries() -> impl Iterator<Item = &'static ats::core::PropertySpec> {
    ats::core::CATALOG.iter()
}

#[test]
fn every_catalog_trace_is_bit_reproducible() {
    let opts = RunOpts::default().procs(4);
    for spec in deterministic_entries() {
        let mut params = ParamValues::defaults(spec);
        params.set("r", ParamValue::Count(2));
        let a = run_single(spec.name, &params, &opts).unwrap();
        let b = run_single(spec.name, &params, &opts).unwrap();
        assert_eq!(a.regions, b.regions, "{}: region tables differ", spec.name);
        assert_eq!(a.comms, b.comms, "{}: comm defs differ", spec.name);
        assert_eq!(
            a.locations, b.locations,
            "{}: event streams differ",
            spec.name
        );
    }
}

#[test]
fn contention_totals_repeat_across_runs() {
    use ats::analyzer::{analyze, AnalyzerConfig};
    // Both contention flavors report as OmpCriticalContention. One
    // scheduler orders every acquisition, so repeated runs must report
    // the same contention total.
    for (name, property) in [
        ("omp_critical_contention", "OmpCriticalContention"),
        ("omp_lock_contention", "OmpCriticalContention"),
    ] {
        let spec = ats::core::catalog::find(name).unwrap();
        let params = ParamValues::defaults(spec);
        let opts = RunOpts::default().procs(2);
        let mut totals = Vec::new();
        for _ in 0..3 {
            let trace = run_single(name, &params, &opts).unwrap();
            let report = analyze(&trace, &AnalyzerConfig::default().threshold(0.0));
            let total: f64 = report
                .findings_for(property)
                .iter()
                .map(|f| f.wait.as_secs())
                .sum();
            totals.push(total);
        }
        assert!(
            totals.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-9),
            "{name}: contention totals must repeat across runs: {totals:?}"
        );
    }
}

#[test]
fn seeds_do_not_leak_into_virtual_time() {
    // Virtual timestamps are pure functions of the program; the RNG seed
    // only affects real-mode memory access patterns.
    let spec = ats::core::catalog::find("late_broadcast").unwrap();
    let params = ParamValues::defaults(spec);
    let a = run_single(
        spec.name,
        &params,
        &RunOpts {
            seed: 1,
            ..RunOpts::default().procs(4)
        },
    )
    .unwrap();
    let b = run_single(
        spec.name,
        &params,
        &RunOpts {
            seed: 0xDEAD_BEEF,
            ..RunOpts::default().procs(4)
        },
    )
    .unwrap();
    assert_eq!(a.locations, b.locations);
}

/// Carrier parity: the coroutine and the OS-thread carrier run one
/// scheduler core, so a catalog sample — OpenMP teams and hybrid entries
/// included — gives byte-identical ATSB traces and identical analyzer
/// reports on both. MPI and hybrid entries run on `ats::mpi::run` with
/// the carrier set; a pure OpenMP program runs inline inside a lone task
/// of the carrier, and its team inherits that task's carrier.
#[test]
fn event_and_thread_backends_produce_identical_atsb_bytes() {
    use ats::analyzer::{analyze, AnalyzerConfig};
    use ats::core::catalog::Paradigm;
    use ats::harness::run_in_comm;
    use ats::mpi::SimBackend;
    use ats_testutil::run_as_tasks;
    let sample = [
        "late_sender",
        "late_receiver",
        "imbalance_at_mpi_barrier",
        "late_broadcast",
        "early_reduce",
        "messages_in_wrong_order",
        "imbalance_at_mpi_alltoall",
        "balanced_ring",
        "omp_critical_contention",
        "omp_lock_contention",
        "imbalance_in_omp_loop",
        "omp_imbalance_at_mpi_barrier",
    ];
    for name in sample {
        let spec = ats::core::catalog::find(name).unwrap();
        let mut params = ParamValues::defaults(spec);
        params.set("r", ParamValue::Count(2));
        let opts = RunOpts::default().procs(8);
        let run_on = |carrier: SimBackend| match spec.paradigm {
            Paradigm::Omp => {
                run_as_tasks(carrier, 1, |_| run_single(name, &params, &opts).unwrap()).remove(0)
            }
            _ => ats::mpi::run(opts.sim_config().backend(carrier), |p| {
                let world = p.comm_world();
                run_in_comm(name, &params, &opts.base, p, &world);
            }),
        };
        let event = run_on(SimBackend::Event);
        let thread = run_on(SimBackend::Thread);
        assert_eq!(
            ats::trace::binfmt::encode(&event),
            ats::trace::binfmt::encode(&thread),
            "{name}: ATSB bytes differ between backends"
        );
        let report_on = |t: &Trace| analyze(t, &AnalyzerConfig::default()).to_json();
        assert_eq!(
            report_on(&event),
            report_on(&thread),
            "{name}: analyzer reports differ between backends"
        );
    }
}

/// Parity holds through the experiment engine at any worker count: rows
/// are byte-identical at jobs 1 and jobs 8 (the carriers' parity is the
/// test above).
#[test]
fn backend_parity_holds_for_any_jobs_value() {
    use ats::harness::cache::row_to_json;
    use ats::harness::experiment::{Experiment, Sweep};
    let rows = |jobs: usize| {
        let rows = Experiment::new("late_sender")
            .sweep(Sweep::seconds("extrawork", [0.005, 0.01, 0.02]))
            .procs_grid([2, 4])
            .opts(RunOpts::default().jobs(jobs))
            .run()
            .unwrap();
        rows.iter()
            .map(|r| row_to_json(r).render())
            .collect::<Vec<_>>()
    };
    assert_eq!(rows(1), rows(8), "jobs=8 diverges from jobs=1");
}

#[test]
fn composites_are_reproducible() {
    use ats::core::{composite, CompositeParams};
    use ats::mpi::SimConfig;
    let params = CompositeParams {
        basework: 0.002,
        extrawork: 0.008,
        reps: 1,
        ..Default::default()
    };
    let run = || {
        let params = params.clone();
        ats::mpi::run(SimConfig::with_procs(8), move |p| {
            let world = p.comm_world();
            composite::two_communicator_composite(p, &params, &world);
        })
    };
    let a = run();
    let b = run();
    assert_eq!(a.locations, b.locations);
    assert_eq!(a.comms, b.comms);
}
