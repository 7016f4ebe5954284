//! Greedy scenario shrinker.
//!
//! When the oracle flags a scenario, the raw witness is usually a
//! multi-slot composite with several innocent phases along for the ride.
//! The shrinker minimizes it while preserving the *failure identity*: a
//! candidate reproduces iff it still yields a violation with one of the
//! original (kind, property) keys — phase indices and regions shift
//! while shrinking, so they are not part of the identity.
//!
//! The strategy is classic greedy delta-debugging to a fixpoint, under a
//! run budget: drop whole slots, drop single phases, collapse split slots
//! to the whole world, force repetition counts to one, and reset
//! parameters to their catalog defaults. Each attempted simplification
//! costs one oracle execution; the budget caps the total.

use crate::oracle::{self, OracleConfig, Violation, ViolationKind};
use crate::scenario::{Scenario, Split};
use ats_harness::RunOpts;
use std::collections::BTreeSet;

/// Result of shrinking one violating scenario.
#[derive(Debug, Clone)]
pub struct ShrinkOutcome {
    /// The minimized scenario (still reproduces).
    pub scenario: Scenario,
    /// The minimized scenario's violations.
    pub violations: Vec<Violation>,
    /// Oracle executions spent.
    pub runs: usize,
    /// Phase count before shrinking.
    pub phases_before: usize,
    /// Phase count after shrinking.
    pub phases_after: usize,
}

/// Failure identity of a violation set.
fn keys(violations: &[Violation]) -> BTreeSet<(ViolationKind, String)> {
    violations.iter().map(Violation::key).collect()
}

struct Shrinker<'a> {
    cfg: &'a OracleConfig,
    opts: &'a RunOpts,
    target: BTreeSet<(ViolationKind, String)>,
    runs: usize,
    budget: usize,
}

impl Shrinker<'_> {
    /// Does `candidate` still fail with one of the original keys? Invalid
    /// or non-reproducing candidates return `None`; reproducing ones
    /// return their violations.
    fn reproduces(&mut self, candidate: &Scenario) -> Option<Vec<Violation>> {
        if self.runs >= self.budget || candidate.validate().is_err() {
            return None;
        }
        self.runs += 1;
        let violations = oracle::violations_of(candidate, self.cfg, self.opts).ok()?;
        if keys(&violations)
            .intersection(&self.target)
            .next()
            .is_some()
        {
            Some(violations)
        } else {
            None
        }
    }
}

/// Candidate simplification passes, in order of expected payoff.
fn candidates(sc: &Scenario) -> Vec<Scenario> {
    let mut out = Vec::new();
    // Drop whole slots, last first (later slots are more likely addenda).
    for i in (0..sc.slots.len()).rev() {
        if sc.slots.len() > 1 {
            let mut c = sc.clone();
            c.slots.remove(i);
            out.push(c);
        }
    }
    // Drop single phases (removing emptied slots; never to zero phases).
    for (si, slot) in sc.slots.iter().enumerate() {
        for pi in 0..slot.phases.len() {
            if sc.num_phases() <= 1 {
                continue;
            }
            let mut c = sc.clone();
            c.slots[si].phases.remove(pi);
            if c.slots[si].phases.is_empty() {
                c.slots.remove(si);
            }
            out.push(c);
        }
    }
    // Collapse single-phase split slots onto the whole world.
    for (si, slot) in sc.slots.iter().enumerate() {
        if slot.split != Split::Whole && slot.phases.len() == 1 {
            let mut c = sc.clone();
            c.slots[si].split = Split::Whole;
            c.slots[si].phases[0].group = 0;
            out.push(c);
        }
    }
    // Force repetition counts to one.
    for (si, slot) in sc.slots.iter().enumerate() {
        for (pi, ph) in slot.phases.iter().enumerate() {
            if ph.params.get("r").is_some_and(|r| r != "1") {
                let mut c = sc.clone();
                c.slots[si].phases[pi]
                    .params
                    .insert("r".to_owned(), "1".to_owned());
                out.push(c);
            }
        }
    }
    // Reset individual parameters to their catalog defaults.
    for (si, slot) in sc.slots.iter().enumerate() {
        for (pi, ph) in slot.phases.iter().enumerate() {
            let Some(spec) = ats_core::catalog::find(&ph.property) else {
                continue;
            };
            for p in spec.params {
                if ph.params.get(p.name).is_some_and(|v| v != p.default) {
                    let mut c = sc.clone();
                    c.slots[si].phases[pi]
                        .params
                        .insert(p.name.to_owned(), p.default.to_owned());
                    out.push(c);
                }
            }
        }
    }
    out
}

/// Shrink `sc` (which must reproduce `violations` under `cfg`/`opts`) to a
/// locally-minimal scenario with the same failure identity. `budget` caps
/// the number of oracle executions (150 is plenty in practice).
pub fn shrink(
    sc: &Scenario,
    violations: &[Violation],
    cfg: &OracleConfig,
    opts: &RunOpts,
    budget: usize,
) -> ShrinkOutcome {
    let mut sh = Shrinker {
        cfg,
        opts,
        target: keys(violations),
        runs: 0,
        budget,
    };
    let phases_before = sc.num_phases();
    let mut current = sc.clone();
    let mut current_violations = violations.to_vec();
    // Greedy fixpoint: take the first candidate that still reproduces,
    // restart the pass from it; stop when no candidate helps.
    'outer: loop {
        for cand in candidates(&current) {
            if let Some(v) = sh.reproduces(&cand) {
                current = cand;
                current_violations = v;
                continue 'outer;
            }
            if sh.runs >= sh.budget {
                break 'outer;
            }
        }
        break;
    }
    ShrinkOutcome {
        phases_after: current.num_phases(),
        scenario: current,
        violations: current_violations,
        runs: sh.runs,
        phases_before,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, GenConfig};
    use ats_analyzer::AnalyzerConfig;

    /// A deliberately mis-calibrated analyzer misses everything: the
    /// canonical failure the shrinker minimizes in tests and CI.
    fn broken_oracle() -> OracleConfig {
        OracleConfig {
            analyzer: AnalyzerConfig::default().threshold(0.9),
        }
    }

    fn first_violating_seed(cfg: &OracleConfig, opts: &RunOpts) -> (Scenario, Vec<Violation>) {
        let gen_cfg = GenConfig::default();
        for seed in 0..50u64 {
            let sc = generate(seed, &gen_cfg);
            let v = oracle::violations_of(&sc, cfg, opts).unwrap();
            if !v.is_empty() {
                return (sc, v);
            }
        }
        panic!("no violating scenario among 50 seeds with a broken analyzer");
    }

    #[test]
    fn shrinks_missed_violations_to_a_tiny_scenario() {
        let cfg = broken_oracle();
        let opts = RunOpts::default();
        let (sc, violations) = first_violating_seed(&cfg, &opts);
        let out = shrink(&sc, &violations, &cfg, &opts, 150);
        assert!(out.phases_after <= 2, "{}", out.scenario);
        assert!(out.phases_after <= out.phases_before);
        assert!(!out.violations.is_empty());
        // The minimized scenario still reproduces one of the original keys.
        let orig = keys(&violations);
        assert!(
            keys(&out.violations).intersection(&orig).next().is_some(),
            "failure identity lost"
        );
        // And it is replayable: re-checking yields the same verdicts.
        let again = oracle::violations_of(&out.scenario, &cfg, &opts).unwrap();
        assert_eq!(keys(&again), keys(&out.violations));
    }

    #[test]
    fn budget_is_respected() {
        let cfg = broken_oracle();
        let opts = RunOpts::default();
        let (sc, violations) = first_violating_seed(&cfg, &opts);
        let out = shrink(&sc, &violations, &cfg, &opts, 3);
        assert!(out.runs <= 3);
    }

    #[test]
    fn clean_oracle_has_nothing_to_shrink() {
        // Sanity: with the honest default analyzer the generator's
        // scenarios pass, so shrinking never even starts in campaigns.
        let cfg = OracleConfig::default();
        let opts = RunOpts::default();
        let sc = generate(7, &GenConfig::default());
        let v = oracle::violations_of(&sc, &cfg, &opts).unwrap();
        assert!(v.is_empty(), "seed 7 violates the honest oracle: {v:#?}");
    }
}
