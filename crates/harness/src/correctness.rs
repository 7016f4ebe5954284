//! Positive/negative correctness scoring of an analysis tool.
//!
//! The suite's whole purpose (paper §1): "the tool must find relevant
//! performance problems in ill-behaving applications, but should not
//! detect spurious problems in well-tuned programs." [`score_catalog`]
//! computes that verdict suite-wide from the experiment engine's rows:
//! every catalog entry runs once at its defaults through
//! [`Session::experiment`], and an entry is correct iff its row is
//! `localized` — for a positive entry, a finding of the expected property
//! at the expected call path; for a negative entry, no finding at all.

use crate::experiment::ExperimentRow;
use crate::session::Session;
use ats_core::catalog::PropertySpec;
use ats_core::Error;
use std::fmt::Write as _;

/// Suite-wide correctness summary: one experiment row per catalog entry.
#[derive(Debug, Clone)]
pub struct SuiteSummary {
    /// Each catalog entry beside its row at defaults, in catalog order.
    cases: Vec<(&'static PropertySpec, ExperimentRow)>,
}

impl SuiteSummary {
    /// `(correct, total)` over the positive (`true`) or negative cases.
    fn tally(&self, positive: bool) -> (usize, usize) {
        let rows: Vec<&ExperimentRow> = self
            .cases
            .iter()
            .filter(|(spec, _)| spec.expected_property.is_some() == positive)
            .map(|(_, row)| row)
            .collect();
        (rows.iter().filter(|row| row.localized).count(), rows.len())
    }

    /// All cases behaved correctly.
    pub fn all_correct(&self) -> bool {
        self.cases.iter().all(|(_, row)| row.localized)
    }

    /// Render a compact report.
    pub fn render(&self) -> String {
        let (pos_ok, pos) = self.tally(true);
        let (neg_ok, neg) = self.tally(false);
        let mut out = String::new();
        let _ = writeln!(
            out,
            "positive correctness: {pos_ok}/{pos}   negative correctness: {neg_ok}/{neg}"
        );
        for (spec, row) in &self.cases {
            let status = if row.localized { "ok " } else { "FAIL" };
            let _ = match spec.expected_property {
                Some(e) => writeln!(
                    out,
                    "  [{status}] {:<32} expect {e:<22} severity {:.4} localized {}",
                    spec.name, row.detected_severity, row.localized
                ),
                None => writeln!(
                    out,
                    "  [{status}] {:<32} expect silence, findings: {}",
                    spec.name, row.unexpected_findings
                ),
            };
        }
        out
    }
}

/// Run the full catalog at defaults in `session` and score everything.
pub fn score_catalog(session: &Session) -> Result<SuiteSummary, Error> {
    let cases = ats_core::CATALOG
        .iter()
        .map(|spec| {
            let row = session.experiment(spec.name).run()?.remove(0);
            Ok((spec, row))
        })
        .collect::<Result<_, Error>>()?;
    Ok(SuiteSummary { cases })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_catalog_scores_perfectly_with_the_reference_analyzer() {
        // This is the headline experiment: the in-repo analyzer passes the
        // whole suite — every positive property detected and localized,
        // every negative case silent.
        let summary = score_catalog(&Session::builder().procs(4).build()).unwrap();
        let text = summary.render();
        assert!(summary.all_correct(), "suite verdicts:\n{text}");
        assert_eq!(summary.cases.len(), ats_core::CATALOG.len());
        assert!(summary.tally(false).1 >= 6);
        for spec in ats_core::CATALOG {
            assert!(text.contains(spec.name), "render missing {}", spec.name);
        }
    }

    #[test]
    fn a_blind_tool_would_fail_positive_correctness() {
        // Simulate a broken tool via an absurd threshold: it reports
        // nothing, so a positive case must score incorrect.
        let blind = Session::builder().procs(4).threshold(0.99).build();
        let rows = blind.experiment("late_sender").run().unwrap();
        assert!(!rows[0].localized, "a silent tool must fail positive cases");
    }
}
