//! Integration contract of the self-observability layer: manifests are
//! deterministic where they promise to be, recording never changes
//! results, every instrumented subsystem shows up in the exports, and
//! each count lands in the registry of the session that recorded it.

use ats::harness::cache::TRACE_FILE;
use ats::harness::experiment::Sweep;
use ats::harness::{ParamValues, Session};
use ats::store::CacheMode;
use ats_fuzz::campaign::{run_campaign, FuzzConfig};
use ats_obs::ObsConfig;
use std::path::Path;

fn fresh_session(jobs: usize) -> Session {
    Session::builder()
        .procs(4)
        .jobs(jobs)
        .seed(0xDE7E_12A1)
        .obs(ObsConfig::fresh())
        .build()
}

fn late_sender_params() -> ParamValues {
    ParamValues::defaults(ats::harness::spec_of("late_sender").unwrap())
}

/// Run a fixed workload (a sweep plus a single analysis) and return the
/// session's manifest.
fn manifest_for(jobs: usize) -> ats_obs::RunManifest {
    let session = fresh_session(jobs);
    let exp = session
        .experiment("late_sender")
        .sweep(ats::harness::experiment::Sweep::seconds(
            "extrawork",
            [0.01, 0.02, 0.04],
        ));
    exp.run().unwrap();
    session
        .run_and_analyze("late_sender", &late_sender_params())
        .unwrap();
    session.manifest("obs_metrics").unwrap()
}

#[test]
fn deterministic_manifest_is_jobs_invariant() {
    let serial = manifest_for(1);
    let parallel = manifest_for(4);
    assert_eq!(
        serial.deterministic_json(),
        parallel.deterministic_json(),
        "deterministic manifest section must not depend on worker count"
    );
    // And the deterministic section actually carries the workload.
    assert!(serial.metrics["ats_mpisim_runs_total"] >= 4);
    assert!(serial.metrics["ats_mpisim_events_total"] > 0);
    assert!(serial.metrics["ats_analyzer_analyses_total"] >= 4);
}

#[test]
fn span_totals_reconcile_with_wall_time() {
    let session = fresh_session(1);
    let started = std::time::Instant::now();
    session
        .run_and_analyze("late_sender", &late_sender_params())
        .unwrap();
    let wall = started.elapsed().as_secs_f64();
    let h = session.obs().unwrap();
    // Every analyzer pass ran exactly once...
    assert_eq!(h.analyzer.extract_time.count(), 1);
    assert_eq!(h.analyzer.match_time.count(), 1);
    assert_eq!(h.analyzer.detect_time.count(), 1);
    assert_eq!(h.analyzer.severity_time.count(), 1);
    // ...and the serial pass timings sum to no more than the elapsed wall
    // time (generous factor: coarse clocks can round individual spans up).
    let span_total = h.analyzer.extract_time.sum_secs()
        + h.analyzer.match_time.sum_secs()
        + h.analyzer.detect_time.sum_secs()
        + h.analyzer.severity_time.sum_secs();
    assert!(
        span_total <= wall * 2.0 + 0.05,
        "span total {span_total}s vs wall {wall}s"
    );
}

#[test]
fn recording_does_not_change_traces() {
    let observed = fresh_session(1);
    let unobserved = Session::builder().procs(4).seed(0xDE7E_12A1).build();
    assert!(unobserved.obs().is_none());
    let params = late_sender_params();
    let a = observed.run("late_sender", &params).unwrap();
    let b = unobserved.run("late_sender", &params).unwrap();
    let mut bytes_a = Vec::new();
    let mut bytes_b = Vec::new();
    ats::trace::binfmt::write_binary(&a, &mut bytes_a).unwrap();
    ats::trace::binfmt::write_binary(&b, &mut bytes_b).unwrap();
    assert_eq!(bytes_a, bytes_b, "observability must not perturb traces");
    // The observed run did record.
    assert!(observed.obs().unwrap().mpi.events.get() > 0);
}

#[test]
fn prometheus_export_covers_every_instrumented_subsystem() {
    let session = fresh_session(2);
    session
        .run_and_analyze("late_sender", &late_sender_params())
        .unwrap();
    // A tiny fuzz campaign through the same session's registry.
    let cfg = FuzzConfig {
        count: 2,
        ..FuzzConfig::for_session(&session)
    };
    run_campaign(&cfg).unwrap();
    let text = session.prometheus().unwrap();
    for prefix in [
        "ats_mpisim_",
        "ats_trace_",
        "ats_pool_",
        "ats_analyzer_",
        "ats_fuzz_",
    ] {
        assert!(text.contains(prefix), "missing {prefix} in:\n{text}");
    }
    let h = session.obs().unwrap();
    assert!(h.fuzz.scenarios.get() >= 2);
    assert!(h.pool.tasks.get() >= 2);
}

#[test]
fn manifest_config_excludes_execution_details() {
    let m = manifest_for(3);
    let config = m.config.render();
    assert!(
        config.contains("\"nprocs\""),
        "config lacks nprocs: {config}"
    );
    assert!(!config.contains("jobs"), "config leaked jobs: {config}");
    assert!(
        !config.contains("backend"),
        "config leaked the carrier: {config}"
    );
}

/// Total size of the `trace.atsb` artifacts in the store rooted at `root`.
fn stored_trace_bytes(root: &Path) -> u64 {
    let mut total = 0;
    for shard in std::fs::read_dir(root.join("objects")).unwrap() {
        for entry in std::fs::read_dir(shard.unwrap().path()).unwrap() {
            let atsb = entry.unwrap().path().join(TRACE_FILE);
            total += std::fs::metadata(atsb).unwrap().len();
        }
    }
    total
}

#[test]
fn encoded_bytes_belong_to_the_session_that_published_them() {
    let rw_session = |dir: &Path| {
        Session::builder()
            .procs(4)
            .obs(ObsConfig::fresh())
            .cache(CacheMode::ReadWrite)
            .cache_dir(dir)
            .build()
    };
    let sweep = |session: &Session| {
        session
            .experiment("late_sender")
            .sweep(Sweep::seconds("extrawork", [0.01, 0.02, 0.04]))
            .run()
            .unwrap()
    };
    let first_dir = ats_testutil::TempDir::new("ats-obs-publish-first");
    let first = rw_session(first_dir.path());
    sweep(&first);
    let encoded = first.obs().unwrap().trace.binary_bytes_encoded.get();
    assert!(encoded > 0, "a cold rw sweep publishes traces");
    assert_eq!(encoded, stored_trace_bytes(first_dir.path()));

    // A second session's publishes count in its own registry only.
    let second_dir = ats_testutil::TempDir::new("ats-obs-publish-second");
    let second = rw_session(second_dir.path());
    sweep(&second);
    assert_eq!(
        second.obs().unwrap().trace.binary_bytes_encoded.get(),
        stored_trace_bytes(second_dir.path())
    );
    assert_eq!(
        first.obs().unwrap().trace.binary_bytes_encoded.get(),
        encoded
    );
}
