//! The extended experiments DESIGN.md defines: the positive and negative
//! correctness sweeps (E-pos, E-neg), severity against scale (E-scale),
//! the design-choice ablations and the fuzz campaign (E-fuzz).
//!
//! Rows print to stdout and are deterministic for any `jobs` value, so
//! the committed files under `artifacts/` regenerate byte for byte;
//! wall-clock lines go to stderr.

use crate::analyzer::{analyze, AnalyzerConfig};
use crate::cli::{failed, write_bench_doc, write_trace_artifact, CliError, CommonArgs};
use crate::core::json::Json;
use crate::core::{pattern, properties::mpi_p2p, BaseComm, Distr, PropertySpec};
use crate::fuzz::campaign::{run_campaign, FuzzConfig};
use crate::fuzz::{corpus, OracleConfig};
use crate::harness::experiment::{kendall_tau, Sweep};
use crate::harness::{pool, ParamValues, Session};
use crate::mpi::SimConfig;
use crate::runtime::{MachineModel, VDur};
use std::path::PathBuf;

/// Under `--trace-dir DIR`, run `spec` with its default parameters and
/// store the trace as `DIR/<name>.atsb`.
fn store_default_trace(
    args: &CommonArgs,
    session: &Session,
    spec: &PropertySpec,
    artifacts: &mut Vec<PathBuf>,
) -> Result<(), CliError> {
    let Some(dir) = args.value("trace-dir") else {
        return Ok(());
    };
    let trace = session
        .run(spec.name, &ParamValues::defaults(spec))
        .map_err(failed)?;
    let path = write_trace_artifact(session, &trace, dir, spec.name)?;
    outln!("  wrote {}", path.display());
    artifacts.push(path);
    Ok(())
}

/// `ats sweep positive`: for every positive property function, sweep the
/// severity knob and check the detected waiting time tracks it
/// monotonically (Kendall tau = 1), localized, with every severity above
/// zero. Writes `BENCH_sweep.json` with the sweep's throughput.
pub(crate) fn sweep_positive(args: &CommonArgs) -> Result<bool, CliError> {
    let nprocs: usize = args.pos_or(0, 8)?;
    let jobs: usize = args.pos_or(1, 0)?;
    let session = args.session(Session::builder().procs(nprocs).jobs(jobs))?;
    let knobs = [0.005, 0.01, 0.02, 0.04, 0.08];
    outln!("=== E-pos: severity tracking across the positive catalog ===\n");
    let mut all_ok = true;
    let mut properties = 0usize;
    let mut configs = 0usize;
    let mut wall_secs = 0.0f64;
    let mut jobs_effective = 1usize;
    let mut artifacts = Vec::new();
    for spec in crate::core::CATALOG {
        if spec.expected_property.is_none() {
            continue;
        }
        let mut exp = session.experiment(spec.name);
        if let Some(k) = spec.knob() {
            exp = exp.sweep(Sweep::seconds(k.name, knobs));
        }
        let (rows, stats) = exp.run_with_stats().map_err(failed)?;
        properties += 1;
        configs += stats.configs;
        wall_secs += stats.wall_secs;
        jobs_effective = jobs_effective.max(stats.jobs);
        let sev: Vec<f64> = rows.iter().map(|r| r.detected_severity).collect();
        // Monotonicity is checked on the absolute waiting time: severity
        // is a fraction of total time and legitimately saturates when the
        // knob scales the entire run.
        let waits: Vec<f64> = rows.iter().map(|r| r.detected_wait_secs).collect();
        let tau = if waits.len() > 1 {
            kendall_tau(&knobs[..waits.len()], &waits)
        } else {
            1.0
        };
        let localized = rows.iter().all(|r| r.localized);
        let ok = tau == 1.0 && localized && sev.iter().all(|s| *s > 0.0);
        all_ok &= ok;
        outln!(
            "{:<32} severities {:?} wait-tau={tau:+.2} localized={localized} [{}]",
            spec.name,
            sev.iter().map(|s| format!("{s:.3}")).collect::<Vec<_>>(),
            if ok { "ok" } else { "FAIL" }
        );
        store_default_trace(args, &session, spec, &mut artifacts)?;
    }
    let configs_per_sec = if wall_secs > 0.0 {
        configs as f64 / wall_secs
    } else {
        0.0
    };
    errln!(
        "\n{configs} configs in {wall_secs:.2}s = {configs_per_sec:.1} configs/sec (jobs={jobs_effective})"
    );
    let doc = Json::obj()
        .with("experiment", "E-pos")
        .with("nprocs", nprocs)
        .with("jobs_requested", jobs)
        .with("jobs_effective", jobs_effective)
        .with("host_parallelism", pool::auto_jobs())
        .with("properties", properties)
        .with("configs", configs)
        .with("wall_secs", wall_secs)
        .with("configs_per_sec", configs_per_sec);
    write_bench_doc("sweep", &doc)?;
    args.emit(&session, "sweep_positive", &artifacts)?;
    outln!(
        "\npositive correctness sweep: {}",
        if all_ok { "ALL OK" } else { "FAILURES" }
    );
    Ok(all_ok)
}

/// `ats sweep negative`: every balanced (negative) property function,
/// across process counts, work amounts and repetitions, must produce
/// zero findings. The process-count axis rides the experiment engine's
/// `procs_grid`, so a property's 18 configurations share the worker pool
/// (the ones a cache cannot replay).
pub(crate) fn sweep_negative(args: &CommonArgs) -> Result<bool, CliError> {
    let jobs: usize = args.pos_or(0, 0)?;
    let session = args.session(Session::builder().procs(4).jobs(jobs))?;
    outln!("=== E-neg: false-positive scan over the negative catalog ===\n");
    let mut all_ok = true;
    let mut total_configs = 0usize;
    let mut total_secs = 0.0f64;
    let mut artifacts = Vec::new();
    for spec in crate::core::CATALOG {
        if spec.expected_property.is_some() {
            continue;
        }
        let mut exp = session.experiment(spec.name).procs_grid([2, 4, 8]);
        if let Some(k) = spec.knob() {
            exp = exp.sweep(Sweep::seconds(k.name, [0.001, 0.01, 0.05]));
        }
        let (rows, stats) = exp
            .sweep(Sweep::counts("r", [1, 4]))
            .run_with_stats()
            .map_err(failed)?;
        total_configs += stats.configs;
        total_secs += stats.wall_secs;
        let fps: usize = rows.iter().map(|r| r.unexpected_findings).sum();
        let ok = fps == 0;
        all_ok &= ok;
        outln!(
            "{:<28} procs={{2,4,8}} configs={} false positives={fps} [{}]",
            spec.name,
            rows.len(),
            if ok { "ok" } else { "FAIL" }
        );
        store_default_trace(args, &session, spec, &mut artifacts)?;
    }
    errln!(
        "\n{total_configs} configs in {total_secs:.2}s = {:.1} configs/sec",
        if total_secs > 0.0 {
            total_configs as f64 / total_secs
        } else {
            0.0
        }
    );
    args.emit(&session, "sweep_negative", &artifacts)?;
    outln!(
        "\nnegative correctness sweep: {}",
        if all_ok { "ALL OK" } else { "FAILURES" }
    );
    Ok(all_ok)
}

/// `ats sweep scaling`: how detected severities behave as the process
/// count grows, per property family — the crossover shapes a tool
/// developer needs to set thresholds that survive scale. Each property's
/// process-count grid runs on the experiment engine's worker pool.
pub(crate) fn scaling(args: &CommonArgs) -> Result<bool, CliError> {
    let jobs: usize = args.pos_or(0, 0)?;
    let session = Session::builder().jobs(jobs).threshold(0.0).build();
    let procs = [4usize, 8, 16, 32];
    let props = [
        "late_sender",
        "imbalance_at_mpi_barrier",
        "late_broadcast",
        "early_reduce",
        "imbalance_at_mpi_alltoall",
    ];
    outln!("=== E-scale: severity vs process count (fixed per-property defaults) ===\n");
    out!("{:<28}", "property");
    for p in procs {
        out!(" P={p:<6}");
    }
    outln!();
    let mut total_secs = 0.0f64;
    for name in props {
        let (rows, stats) = session
            .experiment(name)
            .procs_grid(procs)
            .run_with_stats()
            .map_err(failed)?;
        total_secs += stats.wall_secs;
        out!("{name:<28}");
        for r in &rows {
            out!(" {:<8.4}", r.detected_severity);
        }
        outln!();
    }
    errln!("\n({} property grids in {total_secs:.2}s)", props.len());
    outln!(
        "\nreading: rooted 'late' properties intensify with P (more waiters per\n\
         late root); pairwise properties stay flat (the waiting fraction is\n\
         per-pair); 'early' root properties dilute with P (one waiting root\n\
         among P busy ranks)."
    );
    Ok(true)
}

/// `ats ablation`: the design-choice ablations of DESIGN.md §9.
///
/// 1. **Eager threshold vs. Late Receiver visibility** — with
///    standard-mode sends, the Late Receiver property only exists when
///    the message is large enough to use the rendezvous protocol. The
///    suite's `late_receiver` function therefore forces `MPI_Ssend`; this
///    ablation shows what a tool would see if it relied on message size.
/// 2. **Analyzer threshold vs. finding count** — the sensitivity knob
///    the paper says every tool has.
pub(crate) fn ablation(args: &CommonArgs) -> Result<bool, CliError> {
    let jobs: usize = args.pos_or(0, 0)?;
    outln!("=== Ablation 1: eager threshold vs. LateReceiver visibility ===");
    outln!("(standard-mode sends of 2 KiB; receiver 40ms late; 4 ranks)\n");
    outln!(
        "{:<18} {:<10} LateReceiver severity",
        "eager threshold",
        "protocol"
    );
    // The four protocol configurations are independent: run them on the
    // harness worker pool (4 ranks each → budgeted like a sweep) and
    // print in threshold order afterwards.
    let thresholds = [0usize, 1 << 10, 1 << 16, 1 << 20];
    let eff_jobs = pool::effective_jobs(
        jobs,
        pool::threads_per_config(4),
        pool::default_thread_budget(),
    );
    let severities = pool::run_indexed(eff_jobs, thresholds.len(), |i| {
        let mut model = MachineModel::zero();
        model.eager_threshold = thresholds[i];
        let config = SimConfig {
            nprocs: 4,
            model,
            init_time: VDur::ZERO,
            finalize_time: VDur::ZERO,
            ..Default::default()
        };
        let trace = crate::mpi::run(config, |p| {
            let c = p.comm_world();
            // Like late_receiver, but with standard-mode sends: the
            // protocol choice decides whether the sender ever blocks.
            let base = BaseComm::default();
            let buf = base.alloc();
            let dd = Distr::cyclic2(0.002, 0.042);
            for _ in 0..3 {
                crate::core::par_do_mpi_work(p, &dd, 1.0, &c);
                pattern::sendrecv(
                    p,
                    &buf,
                    pattern::Dir::Up,
                    pattern::PatternMode::default(),
                    &c,
                );
            }
        });
        let report = analyze(&trace, &AnalyzerConfig::default().threshold(0.0));
        report.severity_of("LateReceiver")
    });
    for (threshold, severity) in thresholds.into_iter().zip(severities) {
        let protocol = if threshold >= 2048 {
            "eager"
        } else {
            "rendezvous"
        };
        outln!("{threshold:<18} {protocol:<10} {severity:.4}");
    }
    outln!("\n(with eager sends the sender never blocks: the property vanishes,");
    outln!(" which is why the catalog's late_receiver uses MPI_Ssend)");

    outln!("\n=== Ablation 2: analyzer threshold vs. reported findings ===");
    outln!("(the paper: 'automatic performance tools have different thresholds/sensitivities')\n");
    let config = SimConfig {
        nprocs: 8,
        model: MachineModel::zero(),
        init_time: VDur::ZERO,
        finalize_time: VDur::ZERO,
        ..Default::default()
    };
    let trace = crate::mpi::run(config, |p| {
        let c = p.comm_world();
        let base = BaseComm::default();
        mpi_p2p::late_sender(p, &base, 0.005, 0.05, 2, &c); // severe
        mpi_p2p::late_sender(p, &base, 0.005, 0.002, 2, &c); // mild
        crate::core::properties::mpi_coll::late_broadcast(p, &base, 0.005, 0.0005, 0, 1, &c);
        // faint
    });
    outln!("{:<12} findings", "threshold");
    for threshold in [0.0, 0.001, 0.01, 0.1, 0.5] {
        let report = analyze(&trace, &AnalyzerConfig::default().threshold(threshold));
        outln!("{threshold:<12} {}", report.findings.len());
    }
    Ok(true)
}

/// A fuzz seed: decimal, or hexadecimal after `0x`.
fn parse_seed(s: &str) -> Result<u64, CliError> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    }
    .map_err(|e| CliError::Usage(format!("bad seed `{s}`: {e}")))
}

/// `ats fuzz`: generate, execute and oracle-score seeded composite
/// scenarios, shrink and persist anything that violates, and write
/// `BENCH_fuzz.json`. Any oracle violation or a scenario that does not
/// regenerate byte-identically from its seed fails the command — with
/// the honest default analyzer a run is a correctness gate.
///
/// `--replay` re-runs every minimized scenario persisted under the
/// corpus directory instead: the regression guard for analyzer defects
/// found before. `--threshold` mis-calibrates the analyzer under test, to
/// watch the oracle catch a broken tool (never in CI).
pub(crate) fn fuzz(args: &CommonArgs) -> Result<bool, CliError> {
    let count: usize = args.pos_or(0, 200)?;
    let seed = args.pos(1).map_or(Ok(0xA75_F022), parse_seed)?;
    let jobs: usize = args.pos_or(2, 0)?;
    let nprocs: usize = args.value_or("nprocs", 8)?;
    let mut oracle = OracleConfig::default();
    if let Some(t) = args.parsed("threshold")? {
        oracle.analyzer = AnalyzerConfig::default().threshold(t);
    }
    let corpus_dir = args.value("corpus").map(PathBuf::from);
    let session = args.session(Session::builder().procs(nprocs).jobs(jobs).seed(seed))?;
    if args.has("replay") {
        let ok = replay_corpus(corpus_dir, &oracle, &session)?;
        args.emit(&session, "fuzz_replay", &[])?;
        return Ok(ok);
    }

    let cfg = FuzzConfig {
        count,
        oracle,
        shrink: !args.has("no-shrink"),
        corpus_dir,
        ..FuzzConfig::for_session(&session)
    };
    outln!(
        "=== fuzz: {} scenarios, seed {:#x}, {} ranks ===\n",
        cfg.count,
        cfg.base_seed,
        nprocs
    );
    let result = run_campaign(&cfg).map_err(|e| failed(format!("campaign failed: {e}")))?;
    let stats = &result.stats;
    outln!(
        "{} scenarios ({} phases, {} events) in {:.2}s with {} worker(s): {:.1} scenarios/s",
        stats.scenarios,
        stats.phases_executed,
        stats.events,
        stats.wall_secs,
        stats.jobs,
        stats.scenarios_per_sec
    );
    outln!(
        "violations: {} across {} scenario(s); regen mismatches: {}",
        stats.violations,
        stats.violating_scenarios,
        stats.regen_mismatches
    );
    for m in &result.minimized {
        outln!("\nminimized witness: {}", m.scenario);
        for v in &m.violations {
            outln!("  {}: {}", v.kind, v.detail);
        }
        if let Some(path) = &m.persisted {
            outln!("  -> {}", path.display());
        }
    }

    let doc = Json::obj()
        .with("experiment", "fuzz")
        .with("base_seed", cfg.base_seed)
        .with("nprocs", nprocs)
        .with("scenarios", stats.scenarios)
        .with("phases_executed", stats.phases_executed)
        .with("events", stats.events)
        .with("violations", stats.violations)
        .with("violating_scenarios", stats.violating_scenarios)
        .with("regen_mismatches", stats.regen_mismatches)
        .with("wall_secs", stats.wall_secs)
        .with("scenarios_per_sec", stats.scenarios_per_sec)
        .with("jobs", stats.jobs);
    write_bench_doc("fuzz", &doc)?;
    args.emit(&session, "fuzz", &[])?;

    let ok = stats.violations == 0 && stats.regen_mismatches == 0;
    if !ok {
        errln!(
            "FAIL: {} violation(s), {} regen mismatch(es)",
            stats.violations,
            stats.regen_mismatches
        );
    }
    Ok(ok)
}

fn replay_corpus(
    dir: Option<PathBuf>,
    oracle: &OracleConfig,
    session: &Session,
) -> Result<bool, CliError> {
    let dir = dir.unwrap_or_else(|| PathBuf::from(corpus::DEFAULT_DIR));
    let results = corpus::replay(&dir, oracle, session.opts())
        .map_err(|e| failed(format!("replay failed: {e}")))?;
    outln!(
        "=== replaying {} corpus entries from {} ===\n",
        results.len(),
        dir.display()
    );
    let mut failing = 0;
    for r in &results {
        let status = if r.violations.is_empty() {
            "ok"
        } else {
            "VIOLATES"
        };
        outln!("{:10} {}", status, r.entry.scenario);
        for v in &r.violations {
            outln!("           {}: {}", v.kind, v.detail);
            failing += 1;
        }
    }
    if failing > 0 {
        errln!("\nFAIL: {failing} violation(s) across the corpus");
    } else {
        outln!("\nall corpus entries clean");
    }
    Ok(failing == 0)
}
