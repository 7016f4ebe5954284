//! `ats bench obs`: the cost of self-observability on the suite's
//! composite hot path — the Figure 3.4 two-communicator program plus its
//! full analysis, timed with observability off and on (a fresh registry,
//! every subsystem layer recording). Writes `BENCH_obs.json` and a sample
//! run manifest, `obs_overhead.manifest.json`. Gate: the overhead stays
//! within [`BUDGET_PCT`] — the observability layer's promise is that it
//! is cheap enough to leave on.
//!
//! Timing is best of `reps` (default 5): the minimum is the least
//! scheduler-noisy estimate of the true cost on a shared CI box.

use super::best_of;
use crate::cli::{write_bench_doc, write_file, CliError, CommonArgs};
use crate::core::composite::TWO_COMMUNICATOR_RANKS;
use crate::core::json::Json;
use crate::figures::{figure34_trace, paper_session};
use crate::harness::Session;
use crate::obs::ObsConfig;

/// The gate: observability-on over observability-off wall time, in
/// percent above 100.
pub(crate) const BUDGET_PCT: f64 = 2.0;

fn composite_pass(session: &Session) -> usize {
    let trace = figure34_trace(session);
    let report = session.analyze(&trace);
    // Keep the analysis observable so the whole pass stays live code.
    trace.num_events() + report.findings.len()
}

/// `ats bench obs [reps] [nprocs]`.
pub(crate) fn run(args: &CommonArgs) -> Result<bool, CliError> {
    let reps = args.pos_or(0, 5usize)?.max(1);
    let nprocs = args.ranks("nprocs", 16, TWO_COMMUNICATOR_RANKS)?;

    outln!("=== obs_overhead: figure-3.4 composite + analysis, {reps} reps ===\n");
    let off = paper_session(nprocs).build();
    let (disabled_best, events) = best_of(reps, || composite_pass(&off));
    outln!("observability off: best {disabled_best:.4}s ({events} events)");

    let on = paper_session(nprocs).obs(ObsConfig::fresh()).build();
    let (enabled_best, _) = best_of(reps, || composite_pass(&on));
    outln!("observability on:  best {enabled_best:.4}s");

    let overhead_pct = if disabled_best > 0.0 {
        (enabled_best - disabled_best) / disabled_best * 100.0
    } else {
        0.0
    };
    outln!("overhead: {overhead_pct:+.2}% (budget {BUDGET_PCT}%)");

    let doc = Json::obj()
        .with("experiment", "obs_overhead")
        .with("nprocs", nprocs)
        .with("reps", reps)
        .with("disabled_best_secs", disabled_best)
        .with("enabled_best_secs", enabled_best)
        .with("overhead_pct", overhead_pct)
        .with("budget_pct", BUDGET_PCT)
        .with("events", events);
    write_bench_doc("obs", &doc)?;
    if let Some(manifest) = on.manifest("obs_overhead") {
        let path = "obs_overhead.manifest.json";
        write_file(path, manifest.to_json_pretty())?;
        outln!("wrote {path}");
    }
    Ok(super::verdict("observability", overhead_pct <= BUDGET_PCT))
}
