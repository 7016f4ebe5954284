//! Integration tests for the `ats-fuzz` subsystem: cross-worker
//! determinism of generation and oracle verdicts, the oracle catching a
//! deliberately mis-calibrated analyzer, shrinking the witness to a
//! minimal scenario, and reproducing it from the persisted corpus.

use ats_analyzer::AnalyzerConfig;
use ats_fuzz::campaign::{run_campaign, scenario_seed, FuzzConfig};
use ats_fuzz::{corpus, generate, shrink, GenConfig, OracleConfig, ViolationKind};
use ats_harness::RunOpts;
use std::path::PathBuf;

/// Same seed ⇒ byte-identical scenario and identical oracle verdicts,
/// whether the campaign runs serially or on four workers.
#[test]
fn campaign_verdicts_are_identical_across_worker_counts() {
    let mk = |jobs: usize| FuzzConfig {
        base_seed: 0x5EED_F00D,
        count: 6, // covers >= 3 distinct scenario seeds as required
        jobs,
        shrink: false,
        ..FuzzConfig::default()
    };
    let serial = run_campaign(&mk(1)).expect("serial campaign");
    let parallel = run_campaign(&mk(4)).expect("parallel campaign");
    assert_eq!(serial.verdicts.len(), parallel.verdicts.len());
    for (a, b) in serial.verdicts.iter().zip(&parallel.verdicts) {
        // Verdicts carry index, seed, phase/event counts, and violations:
        // compare every field.
        assert_eq!(a, b, "index {} diverges across jobs=1 vs jobs=4", a.index);
    }
    // And the scenarios themselves regenerate byte-identically.
    for v in &serial.verdicts {
        let once = generate(v.seed, &GenConfig::default()).to_string();
        let twice = generate(v.seed, &GenConfig::default()).to_string();
        assert_eq!(once, twice);
    }
}

/// With the honest default analyzer, a 200-scenario campaign is clean:
/// zero violations, zero generator nondeterminism. This is the same run
/// the CI smoke job performs through `ats fuzz`.
#[test]
#[ignore = "minutes-long; run explicitly or via `ats fuzz`"]
fn honest_analyzer_survives_two_hundred_scenarios() {
    let cfg = FuzzConfig {
        count: 200,
        ..FuzzConfig::default()
    };
    let result = run_campaign(&cfg).expect("campaign");
    assert_eq!(result.stats.violations, 0, "{:#?}", result.minimized);
    assert_eq!(result.stats.regen_mismatches, 0);
}

/// The full defect-to-regression-guard loop: a mis-calibrated analyzer
/// (threshold 0.9 — it misses everything) yields Missed violations; the
/// shrinker reduces the witness to at most two phases; the minimized spec
/// persists to a corpus and replaying it reproduces the same failure.
#[test]
fn broken_analyzer_is_caught_shrunk_persisted_and_reproduced() {
    let broken = OracleConfig {
        analyzer: AnalyzerConfig::default().threshold(0.9),
        ..OracleConfig::default()
    };
    let opts = RunOpts::default();
    let gen_cfg = GenConfig::default();

    // Find a violating scenario (with a broken analyzer, almost any).
    let (sc, violations) = (0..50u64)
        .map(|i| scenario_seed(0xBAD_CA5E, i as usize))
        .find_map(|seed| {
            let sc = generate(seed, &gen_cfg);
            let v = ats_fuzz::oracle::violations_of(&sc, &broken, &opts).expect("oracle");
            (!v.is_empty()).then_some((sc, v))
        })
        .expect("a broken analyzer must violate some scenario");
    assert!(violations.iter().any(|v| v.kind == ViolationKind::Missed));

    // Shrink: the witness collapses to a near-minimal scenario.
    let out = shrink(&sc, &violations, &broken, &opts, 150);
    assert!(
        out.phases_after <= 2,
        "shrinker left {} phases: {}",
        out.phases_after,
        out.scenario
    );

    // Persist to a scratch corpus next to the system temp dir.
    let dir = std::env::temp_dir().join(format!("ats-fuzz-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let run = ats_fuzz::check(&out.scenario, &broken, &opts).expect("check minimized");
    let spec_path: PathBuf =
        corpus::persist(&dir, &out.scenario, &out.violations, &run.trace, &opts).expect("persist");
    assert!(spec_path.exists());

    // Replay from disk with the same broken analyzer: the failure
    // reproduces with the same (kind, property) identity.
    let results = corpus::replay(&dir, &broken, &opts).expect("replay");
    assert_eq!(results.len(), 1);
    let replayed: Vec<_> = results[0].violations.iter().map(|v| v.key()).collect();
    assert!(
        out.violations.iter().any(|v| replayed.contains(&v.key())),
        "replayed violations {replayed:?} lost the original identity"
    );

    // And with the honest analyzer the same corpus is clean — exactly
    // what the regression guard asserts after a fix lands.
    let honest = corpus::replay(&dir, &OracleConfig::default(), &opts).expect("replay honest");
    assert!(
        honest[0].violations.is_empty(),
        "{:#?}",
        honest[0].violations
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Scenario seeds derived from a base seed are stable across releases:
/// they are part of the corpus provenance story (a persisted scenario
/// records the seed it came from).
#[test]
fn scenario_seed_derivation_is_pinned() {
    let a = scenario_seed(0, 0);
    let b = scenario_seed(0, 1);
    let c = scenario_seed(1, 0);
    assert_ne!(a, b);
    assert_ne!(a, c);
    // Re-deriving gives the same values (pure function of base + index).
    assert_eq!(a, scenario_seed(0, 0));
    assert_eq!(b, scenario_seed(0, 1));
}
