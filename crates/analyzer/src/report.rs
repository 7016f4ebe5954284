//! Analysis results: findings, ranking, and the EXPERT-style text view.

use crate::callpath::PathTable;
use crate::property::PropertyKind;
use crate::severity::SeverityCube;
use ats_runtime::VDur;
use ats_trace::{LocationId, Trace};
use std::fmt::Write as _;

/// One reported finding: a property at a call path, with its severity and
/// per-location breakdown.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The diagnosed property.
    pub property: String,
    /// The call path, rendered `a/b/c`.
    pub call_path: String,
    /// Accumulated waiting time.
    pub wait: VDur,
    /// Waiting time / total allocation time.
    pub severity: f64,
    /// Per-location waiting times, sorted by location.
    pub locations: Vec<(String, VDur)>,
}

/// The complete result of analyzing one trace.
#[derive(Debug)]
pub struct AnalysisReport {
    /// The severity cube.
    pub cube: SeverityCube,
    /// Interned call paths.
    pub paths: PathTable,
    /// Findings at or above the configured threshold, ranked by severity
    /// (most severe first).
    pub findings: Vec<Finding>,
    /// The threshold used.
    pub threshold: f64,
}

impl AnalysisReport {
    pub(crate) fn build(
        cube: SeverityCube,
        paths: PathTable,
        trace: &Trace,
        threshold: f64,
    ) -> Self {
        let mut ranked: Vec<(PropertyKind, crate::callpath::PathId, VDur)> = cube
            .by_property_path()
            .into_iter()
            .map(|((p, path), w)| (p, path, w))
            .collect();
        // Full tie-break down to the path id: the ranking source is a hash
        // map, so without it equal (wait, property) entries would surface
        // in nondeterministic order and byte-stable reports (differential
        // streaming-vs-materializing tests, the result cache) would flake.
        ranked.sort_by(|a, b| {
            b.2.cmp(&a.2)
                .then_with(|| a.0.cmp(&b.0))
                .then_with(|| a.1.cmp(&b.1))
        });
        let findings = ranked
            .into_iter()
            .filter(|(_, _, w)| cube.fraction(*w) >= threshold)
            .map(|(p, path, w)| Finding {
                property: p.name().to_owned(),
                call_path: paths.display(path, trace),
                wait: w,
                severity: cube.fraction(w),
                locations: cube
                    .locations_of(p, path)
                    .into_iter()
                    .map(|(loc, w)| (loc.to_string(), w))
                    .collect(),
            })
            .collect();
        AnalysisReport {
            cube,
            paths,
            findings,
            threshold,
        }
    }

    /// True if nothing exceeded the threshold — what a correct tool must
    /// report for every negative test case.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// The findings diagnosing `property` (by name).
    pub fn findings_for(&self, property: &str) -> Vec<&Finding> {
        self.findings
            .iter()
            .filter(|f| f.property == property)
            .collect()
    }

    /// The findings of `property` localized where a catalog entry
    /// expects them: the rendered call path contains both `frame` (the
    /// property function's own region, or any enclosing region) and
    /// `call` (the entry's `localized_at`). This is the suite's one
    /// localization test; the experiment engine and the fuzz oracle both
    /// score through it.
    pub fn findings_at(&self, property: &str, frame: &str, call: &str) -> Vec<&Finding> {
        self.findings
            .iter()
            .filter(|f| {
                f.property == property && f.call_path.contains(frame) && f.call_path.contains(call)
            })
            .collect()
    }

    /// Total severity of a property across all call paths.
    pub fn severity_of(&self, property: &str) -> f64 {
        property
            .parse::<PropertyKind>()
            .map(|p| self.cube.fraction(self.cube.by_property(p)))
            .unwrap_or(0.0)
    }

    /// The locations (as `LocationId`s) blamed for `property`, across
    /// paths, sorted and deduplicated.
    pub fn locations_for(&self, property: &str) -> Vec<LocationId> {
        let Ok(p) = property.parse::<PropertyKind>() else {
            return Vec::new();
        };
        let mut locs: Vec<LocationId> = self
            .cube
            .cells()
            .filter(|((prop, _, _), w)| *prop == p && !w.is_zero())
            .map(|((_, _, loc), _)| *loc)
            .collect();
        locs.sort();
        locs.dedup();
        locs
    }

    /// Serialize the findings (with run totals) as an `ats-report/1`
    /// document — the machine-readable form EXPERIMENTS.md scripts, the
    /// store's `report.json` and every `ats-serve` endpoint share. The
    /// bytes are the canonical rendering defined by [`crate::wire`]; they
    /// are required (and CI-gated) to be identical wherever the same
    /// report is produced.
    pub fn to_json(&self) -> String {
        crate::wire::ReportDoc::of(self).render()
    }

    /// Render the EXPERT-like tri-pane text view: property tree with
    /// severities, then per-property call paths and location breakdowns.
    pub fn render(&self, trace: &Trace) -> String {
        let mut out = String::new();
        let total = self.cube.total_alloc();
        let _ = writeln!(out, "=== ATS-RS automatic analysis ===");
        let _ = writeln!(
            out,
            "total allocation time: {total}   threshold: {:.2}%",
            self.threshold * 100.0
        );
        let _ = writeln!(out, "\n-- performance properties --");
        self.render_tree(PropertyKind::Time, &mut out);
        let _ = writeln!(out, "\n-- findings (ranked) --");
        if self.findings.is_empty() {
            let _ = writeln!(out, "(none above threshold)");
        }
        for f in &self.findings {
            let _ = writeln!(
                out,
                "{:>8.3}%  {:<22} at {}",
                f.severity * 100.0,
                f.property,
                f.call_path
            );
            for (loc, w) in &f.locations {
                let _ = writeln!(out, "            rank/thread {loc:<8} {w}");
            }
        }
        let _ = write!(out, "\n({} locations analyzed)", trace.num_locations());
        out
    }

    /// The property tree depth first, so every row follows its parent:
    /// each interior node with its subtree total, and each leaf that
    /// holds any time.
    fn render_tree(&self, node: PropertyKind, out: &mut String) {
        let w = if node.is_interior() {
            self.cube.subtree_total(node)
        } else {
            self.cube.by_property(node)
        };
        if node.is_interior() || !w.is_zero() {
            let _ = writeln!(
                out,
                "{:indent$}{:<24} {:>8.3}%  {}",
                "",
                node.name(),
                self.cube.fraction(w) * 100.0,
                w,
                indent = node.depth() * 2
            );
        }
        for child in node.children() {
            self.render_tree(child, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::{analyze, AnalyzerConfig};
    use ats_core::{properties::mpi_p2p, BaseComm};
    use ats_mpi::SimConfig;
    use ats_runtime::MachineModel;

    fn cfg(n: usize) -> SimConfig {
        SimConfig {
            nprocs: n,
            model: MachineModel::zero(),
            init_time: VDur::ZERO,
            finalize_time: VDur::ZERO,
            ..Default::default()
        }
    }

    #[test]
    fn findings_are_ranked_and_rendered() {
        let trace = ats_mpi::run(cfg(2), |p| {
            let c = p.comm_world();
            mpi_p2p::late_sender(p, &BaseComm::default(), 0.001, 0.050, 2, &c);
        });
        let report = analyze(&trace, &AnalyzerConfig::default());
        assert!(!report.is_clean());
        let top = &report.findings[0];
        assert_eq!(top.property, "LateSender");
        assert!(top.call_path.contains("late_sender"));
        assert!(top.severity > 0.0);
        let text = report.render(&trace);
        assert!(text.contains("LateSender"));
        assert!(text.contains("findings"));
    }

    /// The property tree prints each row after its parent: a wrong-order
    /// run's leaves sit under `Communication`, `MessagesWrongOrder` under
    /// `LateSender`, and `OpenMP` after the whole MPI subtree. The
    /// interior totals count the wrong-order time once.
    #[test]
    fn property_tree_renders_depth_first() {
        let trace = ats_mpi::run(cfg(4), |p| {
            let c = p.comm_world();
            mpi_p2p::messages_in_wrong_order(p, &BaseComm::default(), 0.01, 0.12, 1, &c);
        });
        let report = analyze(&trace, &AnalyzerConfig::default());
        let text = report.render(&trace);
        let tree: Vec<&str> = text
            .lines()
            .skip_while(|l| *l != "-- performance properties --")
            .skip(1)
            .take_while(|l| !l.is_empty())
            .collect();
        let names: Vec<&str> = tree
            .iter()
            .map(|l| l.split_whitespace().next().unwrap())
            .collect();
        assert_eq!(
            names,
            [
                "Time",
                "MPI",
                "Communication",
                "LateSender",
                "MessagesWrongOrder",
                "OpenMP"
            ],
            "{text}"
        );
        let indent = |i: usize| tree[i].len() - tree[i].trim_start().len();
        assert!(indent(4) > indent(3), "{text}");
        assert_eq!(indent(5), indent(1), "{text}");
        let late = report.cube.by_property(PropertyKind::LateSender);
        assert_eq!(late, VDur::from_millis(2 * 120));
        assert_eq!(report.cube.subtree_total(PropertyKind::Time), late);
    }

    #[test]
    fn json_export_carries_findings() {
        let trace = ats_mpi::run(cfg(2), |p| {
            let c = p.comm_world();
            mpi_p2p::late_sender(p, &BaseComm::default(), 0.001, 0.040, 1, &c);
        });
        let report = analyze(&trace, &AnalyzerConfig::default());
        let json = report.to_json();
        let doc = crate::wire::ReportDoc::parse(&json).unwrap();
        assert_eq!(doc.schema, crate::wire::REPORT_SCHEMA);
        assert!(doc.total_alloc_secs > 0.0);
        assert_eq!(doc.findings[0].property, "LateSender");
        assert!(doc.findings[0].severity > 0.0);
        assert_eq!(doc.findings[0].wait_ns, report.findings[0].wait.as_nanos());
    }

    #[test]
    fn severity_accessors() {
        let trace = ats_mpi::run(cfg(2), |p| {
            let c = p.comm_world();
            mpi_p2p::late_sender(p, &BaseComm::default(), 0.001, 0.040, 1, &c);
        });
        let report = analyze(&trace, &AnalyzerConfig::default());
        assert!(report.severity_of("LateSender") > 0.1);
        assert_eq!(report.severity_of("LateReceiver"), 0.0);
        assert_eq!(report.severity_of("NoSuchThing"), 0.0);
        assert_eq!(
            report.locations_for("LateSender"),
            vec![LocationId::rank(1)]
        );
    }
}
