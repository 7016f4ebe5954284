//! Scenario execution and the compositional ground-truth oracle.
//!
//! Every generated scenario carries its own ground truth: each phase's
//! catalog record says what it must be reported as and where, and its
//! closed-form [`wait`](ats_core::PropertySpec::wait) says how much
//! waiting time it programs on its group (exactly zero for padding).
//! The oracle executes the scenario (every phase wrapped in a `fzNN`
//! trace region), runs the analyzer, and scores the report against that
//! composed prediction. Three things are violations:
//!
//! * **Missed** — a positive phase whose programmed wait is comfortably
//!   above the detection threshold produced no finding of the expected
//!   property at the expected call site inside its region;
//! * **Spurious** — any finding localized inside a padding phase's
//!   region (padding is exactly waitless by construction);
//! * **WaitOutOfBand** — the expected finding exists but its attributed
//!   waiting time falls outside the property's tolerance band around the
//!   programmed nominal wait.
//!
//! The oracle scores against its *own* expected threshold — the
//! detection contract the tool claims — independent of the
//! [`AnalyzerConfig`] actually used to run. Handing it a deliberately
//! mis-calibrated analyzer (threshold far above any finding) therefore
//! produces `Missed` violations: the mechanism the oracle/shrinker
//! integration test uses to prove the loop is live.

use crate::scenario::{region_name, Resolved, Scenario, Split, SYNC_REGION};
use ats_analyzer::{analyze, AnalysisReport, AnalyzerConfig};
use ats_core::{BaseComm, Error, PropertySpec};
use ats_harness::{run_in_comm, RunOpts};
use ats_trace::{RegionKind, Trace};

/// The severity threshold the tool *claims* to detect at. Presence is
/// only demanded when a phase's predicted severity clears this with
/// margin (see `PRESENCE_FACTOR`), so honest borderline phases never
/// flap, while a sabotaged analyzer still yields `Missed`.
const EXPECTED_THRESHOLD: f64 = 0.005;

/// Multiple of `EXPECTED_THRESHOLD` a predicted severity must reach
/// before the oracle demands detection.
const PRESENCE_FACTOR: f64 = 3.0;

/// Oracle configuration.
#[derive(Debug, Clone, Default)]
pub struct OracleConfig {
    /// The analyzer configuration the scenario is scored with — the tool
    /// under test.
    pub analyzer: AnalyzerConfig,
}

/// Kinds of oracle violations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ViolationKind {
    /// Expected finding absent despite a comfortably detectable severity.
    Missed,
    /// A finding localized inside a padding phase's region.
    Spurious,
    /// Expected finding present but its wait is outside the band.
    WaitOutOfBand,
}

impl std::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ViolationKind::Missed => "missed",
            ViolationKind::Spurious => "spurious",
            ViolationKind::WaitOutOfBand => "wait-out-of-band",
        };
        f.write_str(s)
    }
}

/// One oracle violation, attributed to a phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// What went wrong.
    pub kind: ViolationKind,
    /// Global phase index within the scenario.
    pub phase: usize,
    /// The phase's trace region (`fzNN`).
    pub region: String,
    /// Catalog property-function name of the phase.
    pub property: String,
    /// Human-readable specifics.
    pub detail: String,
}

impl Violation {
    /// The identity the shrinker preserves: a candidate reproduces the
    /// original failure iff it yields a violation with the same kind on
    /// the same property function (phase indices shift while shrinking).
    pub fn key(&self) -> (ViolationKind, String) {
        (self.kind, self.property.clone())
    }
}

/// The oracle's per-phase prediction.
#[derive(Debug, Clone)]
pub struct Prediction {
    /// Global phase index.
    pub phase: usize,
    /// Trace region wrapping the phase.
    pub region: String,
    /// The phase's catalog record: what a correct tool must report
    /// (nothing, for padding) and where.
    pub spec: &'static PropertySpec,
    /// Communicator size the phase runs on.
    pub group_size: usize,
    /// Programmed total wait in seconds (0 for padding).
    pub nominal_wait: f64,
}

/// Compose the catalog's expectations with the scenario's topology into
/// one prediction per phase, from the phases [`Scenario::resolve`]
/// returned.
fn predict(sc: &Scenario, phases: &[Resolved]) -> Vec<Prediction> {
    sc.indexed_phases()
        .into_iter()
        .zip(phases)
        .map(|((idx, slot_idx, ph), (spec, v))| {
            let group_size = sc.slots[slot_idx].split.group_size(ph.group, sc.nprocs);
            Prediction {
                phase: idx,
                region: region_name(idx),
                spec,
                group_size,
                nominal_wait: (spec.wait)(v, group_size),
            }
        })
        .collect()
}

/// Execute a scenario into a trace: one `ats_mpi::run` with every phase
/// wrapped in its `fzNN` region and a world barrier (inside the
/// [`SYNC_REGION`]) realigning all clocks between slots.
pub fn execute(sc: &Scenario, opts: &RunOpts) -> Result<Trace, Error> {
    let phases = sc.resolve()?;
    Ok(execute_phases(sc, &phases, opts))
}

/// [`execute`] over the phases [`Scenario::resolve`] returned.
fn execute_phases(sc: &Scenario, phases: &[Resolved], opts: &RunOpts) -> Trace {
    let base = opts.base;
    let cfg = opts.clone().procs(sc.nprocs).sim_config();
    ats_mpi::run(cfg, |p| run_rank(sc, phases, &base, p))
}

fn run_rank(sc: &Scenario, phases: &[Resolved], base: &BaseComm, p: &mut ats_mpi::Proc) {
    let world = p.comm_world();
    let mut idx = 0usize;
    for slot in &sc.slots {
        let (color, comm) = match slot.split {
            Split::Whole => (0, world.clone()),
            split => {
                let color = split.color(p.rank(), sc.nprocs);
                // Collective over the world: every rank participates.
                let sub = p
                    .comm_split(color as i64, p.rank() as i64, &world)
                    .expect("non-negative color");
                (color, sub)
            }
        };
        for ph in &slot.phases {
            if ph.group == color {
                let ((spec, v), region) = (&phases[idx], region_name(idx));
                p.enter_region(&region, RegionKind::User);
                run_in_comm(spec, v, base, p, &comm);
                p.exit_region(&region);
            }
            idx += 1;
        }
        // Realign all clocks so the next slot starts synchronized. Groups
        // finish at different times, so this barrier legitimately
        // collects waits — the oracle never scores anything under it.
        p.enter_region(SYNC_REGION, RegionKind::User);
        p.barrier(&world);
        p.exit_region(SYNC_REGION);
    }
}

/// Multiplicative tolerance band `(lo, hi)` for catalog entry `name`: a
/// measured wait `w` is in band iff `lo * nominal <= w <= hi * nominal`.
fn band(name: &str) -> (f64, f64) {
    match name {
        // The analyzer may split the programmed delay between the
        // wrong-order and plain late-sender classifications, or measure
        // the wait from the MPI_Wait entry rather than the post time.
        "messages_in_wrong_order" | "late_sender_at_wait" => (0.1, 10.0),
        // Hybrid: thread-level imbalance adds secondary waits around the
        // modeled rank-level barrier wait.
        "omp_imbalance_at_mpi_barrier" | "mpi_in_omp_serial" => (0.1, 10.0),
        _ => (0.2, 5.0),
    }
}

/// Score an analysis report against the predictions. `total_alloc_secs`
/// is the trace's total allocation time (the severity denominator).
pub fn score(
    predictions: &[Prediction],
    report: &AnalysisReport,
    total_alloc_secs: f64,
) -> Vec<Violation> {
    let mut out = Vec::new();
    for pred in predictions {
        // Slash-terminated region tag: `fzNN` is never a path leaf (the
        // property frame nests below it), so this matches exactly the
        // findings inside this phase.
        let tag = format!("{}/", pred.region);
        match pred.spec.expected_property {
            None => {
                let spurious: Vec<String> = report
                    .findings
                    .iter()
                    .filter(|f| f.call_path.contains(&tag))
                    .map(|f| {
                        format!(
                            "{} at {} ({:.4}s)",
                            f.property,
                            f.call_path,
                            f.wait.as_secs()
                        )
                    })
                    .collect();
                if !spurious.is_empty() {
                    out.push(Violation {
                        kind: ViolationKind::Spurious,
                        phase: pred.phase,
                        region: pred.region.clone(),
                        property: pred.spec.name.to_owned(),
                        detail: format!("padding phase has findings: {}", spurious.join("; ")),
                    });
                }
            }
            Some(expected) => {
                let matching = report.findings_at(expected, &tag, pred.spec.localized_at);
                let predicted_severity = if total_alloc_secs > 0.0 {
                    pred.nominal_wait / total_alloc_secs
                } else {
                    0.0
                };
                let (band_lo, band_hi) = band(pred.spec.name);
                // Demand presence only when even the most conservative
                // in-band attribution (band_lo of the nominal) still
                // clears the tool's threshold — wide-band properties may
                // legitimately attribute only part of the programmed wait.
                let must_detect = predicted_severity >= PRESENCE_FACTOR * EXPECTED_THRESHOLD
                    && predicted_severity * band_lo >= EXPECTED_THRESHOLD;
                if matching.is_empty() {
                    if must_detect {
                        out.push(Violation {
                            kind: ViolationKind::Missed,
                            phase: pred.phase,
                            region: pred.region.clone(),
                            property: pred.spec.name.to_owned(),
                            detail: format!(
                                "no {expected} at {}/{} despite predicted severity {:.4} \
                                 (threshold {:.4}, nominal wait {:.4}s over {} ranks)",
                                pred.region,
                                pred.spec.localized_at,
                                predicted_severity,
                                EXPECTED_THRESHOLD,
                                pred.nominal_wait,
                                pred.group_size
                            ),
                        });
                    }
                } else if must_detect {
                    let measured: f64 = matching.iter().map(|f| f.wait.as_secs()).sum();
                    let (lo, hi) = (band_lo * pred.nominal_wait, band_hi * pred.nominal_wait);
                    if measured < lo || measured > hi {
                        out.push(Violation {
                            kind: ViolationKind::WaitOutOfBand,
                            phase: pred.phase,
                            region: pred.region.clone(),
                            property: pred.spec.name.to_owned(),
                            detail: format!(
                                "{expected} wait {measured:.4}s outside [{lo:.4}, {hi:.4}] \
                                 (nominal {:.4}s)",
                                pred.nominal_wait
                            ),
                        });
                    }
                }
            }
        }
    }
    out
}

/// The full oracle pass over one scenario.
#[derive(Debug)]
pub struct OracleRun {
    /// The executed trace.
    pub trace: Trace,
    /// The analyzer's report.
    pub report: AnalysisReport,
    /// Per-phase predictions.
    pub predictions: Vec<Prediction>,
    /// Oracle violations (empty = the tool passed this scenario).
    pub violations: Vec<Violation>,
}

/// Execute `sc`, analyze it with `cfg.analyzer`, and score the report.
pub fn check(sc: &Scenario, cfg: &OracleConfig, opts: &RunOpts) -> Result<OracleRun, Error> {
    let phases = sc.resolve()?;
    let predictions = predict(sc, &phases);
    let trace = execute_phases(sc, &phases, opts);
    let report = analyze(&trace, &cfg.analyzer);
    let total = trace.total_alloc_time().as_secs();
    let violations = score(&predictions, &report, total);
    Ok(OracleRun {
        trace,
        report,
        predictions,
        violations,
    })
}

/// Convenience: just the violations of one scenario.
pub fn violations_of(
    sc: &Scenario,
    cfg: &OracleConfig,
    opts: &RunOpts,
) -> Result<Vec<Violation>, Error> {
    check(sc, cfg, opts).map(|r| r.violations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Phase, Slot};

    fn phase(group: usize, property: &str, params: &[(&str, &str)]) -> Phase {
        Phase {
            group,
            property: property.to_owned(),
            params: params
                .iter()
                .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
                .collect(),
        }
    }

    fn two_comm_scenario() -> Scenario {
        Scenario {
            seed: 1,
            nprocs: 8,
            slots: vec![
                Slot {
                    split: Split::Stride { groups: 2 },
                    phases: vec![
                        phase(
                            0,
                            "late_sender",
                            &[("basework", "0.005"), ("extrawork", "0.04"), ("r", "2")],
                        ),
                        phase(1, "balanced_mpi_barrier", &[("work", "0.005"), ("r", "2")]),
                    ],
                },
                Slot {
                    split: Split::Whole,
                    phases: vec![phase(
                        0,
                        "late_broadcast",
                        &[
                            ("basework", "0.005"),
                            ("extrawork", "0.03"),
                            ("root", "2"),
                            ("r", "2"),
                        ],
                    )],
                },
            ],
        }
    }

    #[test]
    fn predictions_compose_catalog_and_topology() {
        let sc = two_comm_scenario();
        let preds = predict(&sc, &sc.resolve().unwrap());
        assert_eq!(preds.len(), 3);
        assert_eq!(preds[0].region, "fz00");
        assert_eq!(preds[0].group_size, 4, "stride2 over 8 ranks");
        // 4-rank group -> 2 pairs * 0.04 * 2 reps.
        assert!((preds[0].nominal_wait - 0.16).abs() < 1e-12);
        assert_eq!(preds[1].spec.expected_property, None, "padding");
        assert_eq!(preds[1].nominal_wait, 0.0);
        assert_eq!(preds[2].group_size, 8);
        // (8-1) * 0.03 * 2.
        assert!((preds[2].nominal_wait - 0.42).abs() < 1e-12);
        assert_eq!(preds[2].spec.localized_at, "MPI_Bcast");
    }

    #[test]
    fn clean_scenario_passes_the_default_oracle() {
        let run = check(
            &two_comm_scenario(),
            &OracleConfig::default(),
            &RunOpts::default(),
        )
        .unwrap();
        assert!(
            run.violations.is_empty(),
            "violations: {:#?}\nfindings: {:#?}",
            run.violations,
            run.report.findings
        );
        // Both positives were found inside their regions.
        assert!(run
            .report
            .findings
            .iter()
            .any(|f| f.property == "LateSender" && f.call_path.contains("fz00/")));
        assert!(run
            .report
            .findings
            .iter()
            .any(|f| f.property == "LateBroadcast" && f.call_path.contains("fz02/")));
    }

    #[test]
    fn execution_is_deterministic() {
        let sc = two_comm_scenario();
        let opts = RunOpts::default();
        let a = execute(&sc, &opts).unwrap();
        let b = execute(&sc, &opts).unwrap();
        assert_eq!(
            ats_trace::binfmt::encode(&a),
            ats_trace::binfmt::encode(&b),
            "same scenario must produce byte-identical traces"
        );
    }

    #[test]
    fn miscalibrated_analyzer_yields_missed_violations() {
        let cfg = OracleConfig {
            analyzer: AnalyzerConfig::default().threshold(0.9),
        };
        let violations = violations_of(&two_comm_scenario(), &cfg, &RunOpts::default()).unwrap();
        assert!(
            violations
                .iter()
                .any(|v| v.kind == ViolationKind::Missed && v.property == "late_sender"),
            "{violations:#?}"
        );
    }

    #[test]
    fn borderline_phases_are_not_demanded() {
        // A positive phase so small its predicted severity is far below
        // the must-detect gate: the oracle must not demand it even if the
        // analyzer misses it.
        let sc = Scenario {
            seed: 2,
            nprocs: 8,
            slots: vec![
                Slot {
                    split: Split::Whole,
                    phases: vec![phase(
                        0,
                        "late_sender",
                        &[("basework", "0.1"), ("extrawork", "0.0002"), ("r", "1")],
                    )],
                },
                Slot {
                    split: Split::Whole,
                    phases: vec![phase(
                        0,
                        "balanced_mpi_barrier",
                        &[("work", "0.1"), ("r", "2")],
                    )],
                },
            ],
        };
        let cfg = OracleConfig {
            analyzer: AnalyzerConfig::default().threshold(0.9),
        };
        let violations = violations_of(&sc, &cfg, &RunOpts::default()).unwrap();
        assert!(violations.is_empty(), "{violations:#?}");
    }

    #[test]
    fn sync_region_waits_are_never_violations() {
        // Wildly unequal group durations: the inter-slot barrier collects
        // large waits, but they land under fuzz_sync, not under padding.
        let sc = Scenario {
            seed: 3,
            nprocs: 8,
            slots: vec![Slot {
                split: Split::Stride { groups: 2 },
                phases: vec![
                    phase(
                        0,
                        "imbalance_at_mpi_barrier",
                        &[("df", "block2:low=0.005,high=0.08"), ("r", "3")],
                    ),
                    phase(1, "balanced_mpi_barrier", &[("work", "0.001"), ("r", "1")]),
                ],
            }],
        };
        let run = check(&sc, &OracleConfig::default(), &RunOpts::default()).unwrap();
        assert!(run.violations.is_empty(), "{:#?}", run.violations);
    }
}
