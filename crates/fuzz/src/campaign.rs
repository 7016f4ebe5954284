//! Fuzzing campaigns: generate → execute → score many scenarios on the
//! shared worker pool, then shrink and persist whatever violates.
//!
//! Scenario seeds are derived with `SplitMix64::split(base_seed, index)`,
//! so each index's scenario is independent of every other index — the
//! campaign produces identical verdicts at any worker count, which the
//! cross-jobs integration test and the CI smoke job both assert. Each
//! scenario is additionally generated *twice* and compared byte-for-byte,
//! turning any nondeterminism in the generator itself into a reported
//! mismatch rather than silent corpus noise.

use crate::generator::{self, GenConfig};
use crate::oracle::{self, OracleConfig, Violation};
use crate::scenario::Scenario;
use crate::{corpus, shrink};
use ats_core::Error;
use ats_harness::{pool, RunOpts};
use ats_runtime::SplitMix64;
use std::path::PathBuf;

/// Campaign configuration.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Root seed; scenario `i` uses `SplitMix64::split(base_seed, i)`.
    pub base_seed: u64,
    /// Number of scenarios.
    pub count: usize,
    /// Worker count (`0` = auto); clamped by the harness thread budget.
    pub jobs: usize,
    /// Generator knobs.
    pub gen: GenConfig,
    /// Oracle knobs.
    pub oracle: OracleConfig,
    /// Execution options shared by all scenarios.
    pub opts: RunOpts,
    /// Shrink violating scenarios before reporting/persisting.
    pub shrink: bool,
    /// Persist minimized violating scenarios (spec + trace) here.
    pub corpus_dir: Option<PathBuf>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            base_seed: 0xA75_F022,
            count: 200,
            jobs: 0,
            gen: GenConfig::default(),
            oracle: OracleConfig::default(),
            opts: RunOpts::default(),
            shrink: true,
            corpus_dir: None,
        }
    }
}

impl FuzzConfig {
    /// A campaign configured from a [`Session`](ats_harness::Session):
    /// run options (process count, seed, observability handle) and worker
    /// count come from the session, so campaign metrics land in the same
    /// registry as everything else the session runs.
    pub fn for_session(session: &ats_harness::Session) -> Self {
        let opts = session.opts().clone();
        FuzzConfig {
            base_seed: opts.seed,
            jobs: opts.jobs,
            gen: GenConfig {
                nprocs: opts.nprocs,
                ..GenConfig::default()
            },
            opts,
            ..FuzzConfig::default()
        }
    }
}

/// The scenario seed for campaign index `i` under `base_seed`.
pub fn scenario_seed(base_seed: u64, i: usize) -> u64 {
    SplitMix64::split(base_seed, i as u64).next_u64()
}

/// Verdict for one campaign scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioVerdict {
    /// Campaign index.
    pub index: usize,
    /// Scenario seed (derived from the base seed).
    pub seed: u64,
    /// Phases in the scenario.
    pub phases: usize,
    /// Events in the executed trace.
    pub events: usize,
    /// Oracle violations (empty = pass).
    pub violations: Vec<Violation>,
    /// True if generating the scenario twice produced different bytes —
    /// generator nondeterminism, always a campaign failure.
    pub regen_mismatch: bool,
}

impl ScenarioVerdict {
    /// Did this scenario pass cleanly?
    pub fn passed(&self) -> bool {
        self.violations.is_empty() && !self.regen_mismatch
    }
}

/// Aggregate campaign statistics (the `BENCH_fuzz.json` payload).
#[derive(Debug, Clone)]
pub struct FuzzStats {
    /// Scenarios executed.
    pub scenarios: usize,
    /// Total phases executed.
    pub phases_executed: usize,
    /// Total trace events produced.
    pub events: usize,
    /// Total violations across all scenarios.
    pub violations: usize,
    /// Scenarios with at least one violation.
    pub violating_scenarios: usize,
    /// Scenarios whose re-generation mismatched.
    pub regen_mismatches: usize,
    /// Wall-clock seconds for the scenario loop.
    pub wall_secs: f64,
    /// Scenarios per wall-clock second.
    pub scenarios_per_sec: f64,
    /// Effective worker count used.
    pub jobs: usize,
}

/// One minimized, persisted violation witness.
#[derive(Debug)]
pub struct Minimized {
    /// The minimized scenario.
    pub scenario: Scenario,
    /// Its violations.
    pub violations: Vec<Violation>,
    /// Where the spec was persisted (`None` if no corpus dir was set).
    pub persisted: Option<PathBuf>,
}

/// Full campaign outcome.
#[derive(Debug)]
pub struct CampaignResult {
    /// Per-scenario verdicts, in index order.
    pub verdicts: Vec<ScenarioVerdict>,
    /// Aggregate statistics.
    pub stats: FuzzStats,
    /// Shrunk witnesses for the violating scenarios.
    pub minimized: Vec<Minimized>,
}

/// Generate, execute, and score one campaign index. Public so the
/// cross-jobs determinism test can compare single indices directly.
pub fn run_index(cfg: &FuzzConfig, i: usize) -> Result<(Scenario, ScenarioVerdict), Error> {
    let obs = cfg.opts.obs.as_ref();
    let scenario_started = std::time::Instant::now();
    let seed = scenario_seed(cfg.base_seed, i);
    let sc = generator::generate(seed, &cfg.gen);
    let again = generator::generate(seed, &cfg.gen);
    let regen_mismatch = sc.to_json_value().render() != again.to_json_value().render();
    let oracle_started = std::time::Instant::now();
    let run = oracle::check(&sc, &cfg.oracle, &cfg.opts)?;
    if let Some(obs) = obs {
        obs.fuzz.oracle_time.observe(oracle_started.elapsed());
        obs.fuzz.scenarios.inc();
        obs.fuzz.phases.add(sc.num_phases() as u64);
        obs.fuzz.violations.add(run.violations.len() as u64);
        obs.fuzz.scenario_time.observe(scenario_started.elapsed());
    }
    let verdict = ScenarioVerdict {
        index: i,
        seed,
        phases: sc.num_phases(),
        events: run.trace.num_events(),
        violations: run.violations,
        regen_mismatch,
    };
    Ok((sc, verdict))
}

/// Run a whole campaign.
pub fn run_campaign(cfg: &FuzzConfig) -> Result<CampaignResult, Error> {
    let jobs = pool::effective_jobs(
        cfg.jobs,
        pool::threads_per_config(cfg.gen.nprocs),
        pool::default_thread_budget(),
    );
    let start = std::time::Instant::now();
    let runs = pool::run_indexed_with(jobs, cfg.count, cfg.opts.obs.clone(), |i| run_index(cfg, i));
    let wall_secs = start.elapsed().as_secs_f64();

    let mut verdicts = Vec::with_capacity(cfg.count);
    let mut failures = Vec::new();
    for run in runs {
        match run {
            Ok((sc, verdict)) => {
                if !verdict.passed() {
                    failures.push((sc, verdict.violations.clone()));
                }
                verdicts.push(verdict);
            }
            Err(e) => return Err(e),
        }
    }

    // Shrink + persist serially: failures are rare and each shrink run
    // already saturates the pool budget with its own rank threads.
    let mut minimized = Vec::new();
    for (sc, violations) in failures {
        if violations.is_empty() {
            // Pure regen mismatch: nothing to shrink, nothing to persist.
            continue;
        }
        let (min_sc, min_violations) = if cfg.shrink {
            let out = shrink::shrink(&sc, &violations, &cfg.oracle, &cfg.opts, 150);
            if let Some(obs) = &cfg.opts.obs {
                obs.fuzz.shrink_iterations.add(out.runs as u64);
            }
            (out.scenario, out.violations)
        } else {
            (sc, violations)
        };
        let persisted = match &cfg.corpus_dir {
            Some(dir) => {
                let trace = oracle::check(&min_sc, &cfg.oracle, &cfg.opts)?.trace;
                Some(corpus::persist(
                    dir,
                    &min_sc,
                    &min_violations,
                    &trace,
                    &cfg.opts,
                )?)
            }
            None => None,
        };
        minimized.push(Minimized {
            scenario: min_sc,
            violations: min_violations,
            persisted,
        });
    }

    let stats = FuzzStats {
        scenarios: verdicts.len(),
        phases_executed: verdicts.iter().map(|v| v.phases).sum(),
        events: verdicts.iter().map(|v| v.events).sum(),
        violations: verdicts.iter().map(|v| v.violations.len()).sum(),
        violating_scenarios: verdicts.iter().filter(|v| !v.violations.is_empty()).count(),
        regen_mismatches: verdicts.iter().filter(|v| v.regen_mismatch).count(),
        wall_secs,
        scenarios_per_sec: if wall_secs > 0.0 {
            verdicts.len() as f64 / wall_secs
        } else {
            0.0
        },
        jobs,
    };
    Ok(CampaignResult {
        verdicts,
        stats,
        minimized,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_seeds_are_order_independent() {
        // split(base, i) depends only on (base, i), not on drawing order.
        let a: Vec<u64> = (0..8).map(|i| scenario_seed(42, i)).collect();
        let b: Vec<u64> = (0..8).rev().map(|i| scenario_seed(42, i)).collect();
        let b_rev: Vec<u64> = b.into_iter().rev().collect();
        assert_eq!(a, b_rev);
        assert_eq!(a.len(), {
            let mut u = a.clone();
            u.sort_unstable();
            u.dedup();
            u.len()
        });
    }

    #[test]
    fn small_campaign_is_clean_and_counts_add_up() {
        let cfg = FuzzConfig {
            count: 6,
            jobs: 2,
            ..FuzzConfig::default()
        };
        let result = run_campaign(&cfg).unwrap();
        assert_eq!(result.verdicts.len(), 6);
        for v in &result.verdicts {
            assert!(v.passed(), "index {}: {:#?}", v.index, v.violations);
        }
        assert_eq!(result.stats.scenarios, 6);
        assert_eq!(result.stats.violations, 0);
        assert_eq!(result.stats.regen_mismatches, 0);
        assert!(result.stats.phases_executed >= 6);
        assert!(result.stats.events > 0);
        assert!(result.minimized.is_empty());
        // Verdicts come back in index order regardless of worker count.
        for (i, v) in result.verdicts.iter().enumerate() {
            assert_eq!(v.index, i);
        }
    }

    #[test]
    fn jobs_do_not_change_verdicts() {
        let mk = |jobs| FuzzConfig {
            count: 4,
            jobs,
            ..FuzzConfig::default()
        };
        let serial = run_campaign(&mk(1)).unwrap();
        let parallel = run_campaign(&mk(4)).unwrap();
        assert_eq!(serial.verdicts, parallel.verdicts);
    }
}
