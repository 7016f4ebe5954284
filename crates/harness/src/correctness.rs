//! Positive/negative correctness scoring of an analysis tool.
//!
//! The suite's whole purpose (paper §1): "the tool must find relevant
//! performance problems in ill-behaving applications, but should not
//! detect spurious problems in well-tuned programs." Given the catalog's
//! expectations and the in-repo analyzer, these functions compute that
//! verdict suite-wide.

use crate::params::ParamValues;
use crate::registry::{run_single, spec_of, RunOpts};
use ats_analyzer::{analyze, AnalyzerConfig};
use ats_core::catalog::{Paradigm, PropertySpec};
use ats_core::Error;
use std::fmt::Write as _;

/// Verdict for one property function under one configuration.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// Property function name.
    pub property: String,
    /// The expected analyzer property, if any.
    pub expected: Option<String>,
    /// Severity assigned to the expected property.
    pub severity: f64,
    /// Detected at all (severity above the analyzer threshold)?
    pub detected: bool,
    /// Localized at the expected call path?
    pub localized: bool,
    /// Findings for other properties.
    pub extra_findings: Vec<String>,
}

impl Verdict {
    /// The tool behaved correctly on this test case.
    fn correct(&self) -> bool {
        match &self.expected {
            Some(_) => self.detected && self.localized,
            None => self.extra_findings.is_empty(),
        }
    }
}

/// Score one positive test case.
fn score_positive(
    spec: &PropertySpec,
    params: &ParamValues,
    opts: &RunOpts,
    analyzer: &AnalyzerConfig,
) -> Result<Verdict, Error> {
    let expected = spec
        .expected_property
        .expect("score_positive needs a positive case");
    let trace = run_single(spec.name, params, opts)?;
    let report = analyze(&trace, analyzer);
    let severity = report.severity_of(expected);
    let hits = report.findings_for(expected);
    let detected = !hits.is_empty();
    let localized = hits
        .iter()
        .any(|f| f.call_path.contains(spec.name) && f.call_path.contains(spec.localized_at));
    let extra_findings = report
        .findings
        .iter()
        .filter(|f| f.property != expected)
        .map(|f| format!("{} at {}", f.property, f.call_path))
        .collect();
    Ok(Verdict {
        property: spec.name.to_owned(),
        expected: Some(expected.to_owned()),
        severity,
        detected,
        localized,
        extra_findings,
    })
}

/// Score one negative test case.
fn score_negative(
    spec: &PropertySpec,
    params: &ParamValues,
    opts: &RunOpts,
    analyzer: &AnalyzerConfig,
) -> Result<Verdict, Error> {
    assert!(
        spec.expected_property.is_none(),
        "score_negative needs a negative case"
    );
    let trace = run_single(spec.name, params, opts)?;
    let report = analyze(&trace, analyzer);
    let extra_findings = report
        .findings
        .iter()
        .map(|f| format!("{} at {}", f.property, f.call_path))
        .collect();
    Ok(Verdict {
        property: spec.name.to_owned(),
        expected: None,
        severity: 0.0,
        detected: false,
        localized: true,
        extra_findings,
    })
}

/// Suite-wide correctness summary.
#[derive(Debug, Clone)]
pub struct SuiteSummary {
    /// Per-case verdicts.
    pub verdicts: Vec<Verdict>,
    /// Positive cases detected + localized.
    pub positives_correct: usize,
    /// Total positive cases.
    pub positives_total: usize,
    /// Negative cases with no findings.
    pub negatives_correct: usize,
    /// Total negative cases.
    pub negatives_total: usize,
}

impl SuiteSummary {
    /// All cases behaved correctly.
    pub fn all_correct(&self) -> bool {
        self.positives_correct == self.positives_total
            && self.negatives_correct == self.negatives_total
    }

    /// Render a compact report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "positive correctness: {}/{}   negative correctness: {}/{}",
            self.positives_correct,
            self.positives_total,
            self.negatives_correct,
            self.negatives_total
        );
        for v in &self.verdicts {
            let status = if v.correct() { "ok " } else { "FAIL" };
            match &v.expected {
                Some(e) => {
                    let _ = writeln!(
                        out,
                        "  [{status}] {:<32} expect {e:<22} severity {:.4} localized {}",
                        v.property, v.severity, v.localized
                    );
                }
                None => {
                    let _ = writeln!(
                        out,
                        "  [{status}] {:<32} expect silence, findings: {}",
                        v.property,
                        v.extra_findings.len()
                    );
                }
            }
        }
        out
    }
}

/// Run the full catalog at defaults and score everything.
pub fn score_catalog(opts: &RunOpts, analyzer: &AnalyzerConfig) -> Result<SuiteSummary, Error> {
    let mut verdicts = Vec::new();
    for spec in ats_core::CATALOG {
        let _ = spec_of(spec.name)?; // sanity
        let params = ParamValues::defaults(spec);
        let v = if spec.paradigm == Paradigm::Negative {
            score_negative(spec, &params, opts, analyzer)?
        } else {
            score_positive(spec, &params, opts, analyzer)?
        };
        verdicts.push(v);
    }
    let positives: Vec<&Verdict> = verdicts.iter().filter(|v| v.expected.is_some()).collect();
    let negatives: Vec<&Verdict> = verdicts.iter().filter(|v| v.expected.is_none()).collect();
    Ok(SuiteSummary {
        positives_correct: positives.iter().filter(|v| v.correct()).count(),
        positives_total: positives.len(),
        negatives_correct: negatives.iter().filter(|v| v.correct()).count(),
        negatives_total: negatives.len(),
        verdicts,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ats_core::catalog;

    #[test]
    fn full_catalog_scores_perfectly_with_the_reference_analyzer() {
        // This is the headline experiment: the in-repo analyzer passes the
        // whole suite — every positive property detected and localized,
        // every negative case silent.
        let summary =
            score_catalog(&RunOpts::default().procs(4), &AnalyzerConfig::default()).unwrap();
        assert!(
            summary.all_correct(),
            "suite verdicts:\n{}",
            summary.render()
        );
        assert_eq!(
            summary.positives_total + summary.negatives_total,
            catalog::CATALOG.len()
        );
        assert!(summary.negatives_total >= 6);
    }

    #[test]
    fn a_blind_tool_would_fail_positive_correctness() {
        // Simulate a broken tool via an absurd threshold: it reports
        // nothing, so every positive case must score incorrect.
        let strict = AnalyzerConfig::default().threshold(0.99);
        let spec = catalog::find("late_sender").unwrap();
        let v = score_positive(
            spec,
            &ParamValues::defaults(spec),
            &RunOpts::default().procs(4),
            &strict,
        )
        .unwrap();
        assert!(!v.correct(), "a silent tool must fail positive cases");
    }

    #[test]
    fn render_mentions_every_case() {
        let summary =
            score_catalog(&RunOpts::default().procs(4), &AnalyzerConfig::default()).unwrap();
        let text = summary.render();
        for spec in ats_core::CATALOG {
            assert!(text.contains(spec.name), "render missing {}", spec.name);
        }
    }
}
