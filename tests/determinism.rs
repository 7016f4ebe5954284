//! Reproducibility: a test suite whose purpose is producing *known* timing
//! patterns must produce bit-identical traces across runs — the property
//! the paper's wall-clock calibration could only approximate, strengthened
//! here by virtual time.

use ats::harness::{run_single, ParamValue, ParamValues, RunOpts};
use ats::trace::Trace;

fn canonical(mut t: Trace) -> Trace {
    t.canonicalize();
    t
}

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
        let a = canonical(run_single(spec.name, &params, &opts).unwrap());
        let b = canonical(run_single(spec.name, &params, &opts).unwrap());
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
fn contention_totals_are_stable_even_if_order_is_not() {
    use ats::analyzer::{analyze, AnalyzerConfig};
    // Both contention flavors report as OmpCriticalContention.
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
            "{name}: aggregate contention must be schedule-independent: {totals:?}"
        );
    }
}

#[test]
fn seeds_do_not_leak_into_virtual_time() {
    // Virtual timestamps are pure functions of the program; the RNG seed
    // only affects real-mode memory access patterns.
    let spec = ats::core::catalog::find("late_broadcast").unwrap();
    let params = ParamValues::defaults(spec);
    let a = canonical(
        run_single(
            spec.name,
            &params,
            &RunOpts {
                seed: 1,
                ..RunOpts::default().procs(4)
            },
        )
        .unwrap(),
    );
    let b = canonical(
        run_single(
            spec.name,
            &params,
            &RunOpts {
                seed: 0xDEAD_BEEF,
                ..RunOpts::default().procs(4)
            },
        )
        .unwrap(),
    );
    assert_eq!(a.locations, b.locations);
}

/// Carrier parity: the coroutine and the OS-thread carrier run one
/// scheduler core, so a catalog sample — OpenMP teams and hybrid entries
/// included — gives byte-identical ATSB traces and identical analyzer
/// reports on both.
#[test]
fn event_and_thread_backends_produce_identical_atsb_bytes() {
    use ats::analyzer::{analyze, AnalyzerConfig};
    use ats::mpi::SimBackend;
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
        let run_on = |backend: SimBackend| {
            canonical(
                run_single(name, &params, &RunOpts::default().procs(8).backend(backend)).unwrap(),
            )
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

/// Backend parity holds through the experiment engine at any worker
/// count: rows are byte-identical for (event, thread) × (jobs 1, jobs 8).
#[test]
fn backend_parity_holds_for_any_jobs_value() {
    use ats::harness::cache::row_to_json;
    use ats::harness::experiment::{Experiment, Sweep};
    use ats::mpi::SimBackend;
    let rows = |backend: SimBackend, jobs: usize| {
        let (rows, stats) = Experiment::new("late_sender")
            .sweep(Sweep::seconds("extrawork", [0.005, 0.01, 0.02]))
            .procs_grid([2, 4])
            .opts(RunOpts::default().backend(backend).jobs(jobs))
            .run_with_stats()
            .unwrap();
        assert_eq!(stats.backend, backend.effective().label());
        rows.iter()
            .map(|r| row_to_json(r).render())
            .collect::<Vec<_>>()
    };
    let baseline = rows(SimBackend::Event, 1);
    for (backend, jobs) in [
        (SimBackend::Event, 8),
        (SimBackend::Thread, 1),
        (SimBackend::Thread, 8),
    ] {
        assert_eq!(
            baseline,
            rows(backend, jobs),
            "{}/jobs={jobs} diverges from event/jobs=1",
            backend.label()
        );
    }
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
        canonical(ats::mpi::run(SimConfig::with_procs(8), move |p| {
            let world = p.comm_world();
            composite::two_communicator_composite(p, &params, &world);
        }))
    };
    let a = run();
    let b = run();
    assert_eq!(a.locations, b.locations);
    assert_eq!(a.comms, b.comms);
}
