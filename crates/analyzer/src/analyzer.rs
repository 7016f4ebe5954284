//! The analysis driver.

use crate::asl::default_property_set;
use crate::extract::extract;
use crate::patterns;
use crate::property::PropertyKind;
use crate::report::AnalysisReport;
use crate::severity::SeverityCube;
use ats_trace::Trace;

/// Analyzer configuration.
#[derive(Debug, Clone)]
pub struct AnalyzerConfig {
    /// Observability registry analyses record into (`None` = no
    /// recording): per-pass span timings, ingest counters, finding
    /// counts. Recording never changes the report.
    pub obs: Option<ats_obs::Handle>,
    /// Minimum severity fraction (waiting time / total allocation time)
    /// for a (property, call path) to be reported. The paper notes that
    /// "automatic performance tools have different thresholds /
    /// sensitivities", which is exactly why ATS severities must be
    /// parameterizable — and why the threshold is a config knob here.
    pub threshold: f64,
    /// Report MPI_Init/MPI_Finalize overhead as a property (the paper's
    /// Fig. 3.2 remark). Off by default: for tiny synthetic programs it
    /// dominates everything else, as the paper itself observed.
    pub report_setup_overhead: bool,
}

impl Default for AnalyzerConfig {
    fn default() -> Self {
        AnalyzerConfig {
            obs: None,
            threshold: 0.005,
            report_setup_overhead: false,
        }
    }
}

impl AnalyzerConfig {
    /// Builder: set the reporting threshold.
    pub fn threshold(mut self, t: f64) -> Self {
        self.threshold = t;
        self
    }

    /// Builder: include setup overhead in the report.
    pub fn with_setup_overhead(mut self) -> Self {
        self.report_setup_overhead = true;
        self
    }

    /// Builder: record metrics into `obs` for every analysis.
    pub fn obs(mut self, obs: ats_obs::Handle) -> Self {
        self.obs = Some(obs);
        self
    }
}

/// Run `f` as the span `name`, observing its duration into `h` when
/// observability is on.
fn timed<T>(h: Option<&ats_obs::Histogram>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match h {
        Some(h) => {
            let _t = h.span(name);
            f()
        }
        None => f(),
    }
}

/// Run the automatic analysis over a trace.
pub fn analyze(trace: &Trace, config: &AnalyzerConfig) -> AnalysisReport {
    let m = config.obs.as_ref().map(|o| &o.analyzer);
    if let Some(m) = m {
        m.analyses.inc();
        m.events_ingested.add(trace.num_events() as u64);
    }
    let ex = timed(m.map(|m| &m.extract_time), "analyzer.extract", || {
        extract(trace)
    });
    detect_and_report(ex, trace, trace.total_alloc_time(), config)
}

/// Evaluate the default property set over an [`Extract`] and build the
/// ranked report. Shared by [`analyze`] and the streaming ingest path
/// ([`crate::ingest::analyze_stream`]): given equal extracts and equal
/// `total_alloc`, both produce byte-identical reports. `trace` only
/// supplies the region and communicator tables (for call-path rendering
/// and collective-root resolution), so a locationless shell trace works.
pub(crate) fn detect_and_report(
    ex: crate::extract::Extract,
    trace: &Trace,
    total_alloc: ats_runtime::VDur,
    config: &AnalyzerConfig,
) -> AnalysisReport {
    let m = config.obs.as_ref().map(|o| &o.analyzer);
    let mut cube = SeverityCube::new(total_alloc);

    let pairs = timed(m.map(|m| &m.match_time), "analyzer.match", || {
        patterns::match_messages(&ex)
    });
    let set = default_property_set();
    timed(m.map(|m| &m.detect_time), "analyzer.detect", || {
        set.each_finding(&ex, &pairs, trace, |f| match set.kind(f.property) {
            Some(PropertyKind::MpiSetupOverhead) if !config.report_setup_overhead => {}
            Some(kind) => cube.add(kind, f.path, f.loc, f.wait),
            None => {}
        })
    })
    .expect("the default set cannot overflow: each wait is a difference of trace times");

    let report = timed(m.map(|m| &m.severity_time), "analyzer.severity", || {
        AnalysisReport::build(cube, ex.paths, trace, config.threshold)
    });
    if let Some(m) = m {
        m.findings.add(report.findings.len() as u64);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg;
    use ats_core::composite::{two_communicator_composite, CompositeParams};
    use ats_core::properties::{mpi_coll, mpi_p2p, negative, omp};
    use ats_core::{with_omp, BaseComm, Distr};
    use ats_runtime::VDur;
    use ats_trace::LocationId;

    fn base() -> BaseComm {
        BaseComm::default()
    }

    #[test]
    fn detects_every_paper_prototype_property() {
        // One program per property; the analyzer must find the expected
        // property name from ats-core's catalog.
        type Body = Box<dyn Fn(&mut ats_mpi::Proc) + Sync>;
        let runs: Vec<(&str, Body)> = vec![
            (
                "late_sender",
                Box::new(|p| {
                    let c = p.comm_world();
                    mpi_p2p::late_sender(p, &base(), 0.002, 0.02, 2, &c)
                }),
            ),
            (
                "late_receiver",
                Box::new(|p| {
                    let c = p.comm_world();
                    mpi_p2p::late_receiver(p, &base(), 0.002, 0.02, 2, &c)
                }),
            ),
            (
                "imbalance_at_mpi_barrier",
                Box::new(|p| {
                    let c = p.comm_world();
                    mpi_coll::imbalance_at_mpi_barrier(p, &Distr::block2(0.002, 0.02), 2, &c)
                }),
            ),
            (
                "imbalance_at_mpi_alltoall",
                Box::new(|p| {
                    let c = p.comm_world();
                    mpi_coll::imbalance_at_mpi_alltoall(
                        p,
                        &base(),
                        &Distr::linear(0.002, 0.02),
                        2,
                        &c,
                    )
                }),
            ),
            (
                "late_broadcast",
                Box::new(|p| {
                    let c = p.comm_world();
                    mpi_coll::late_broadcast(p, &base(), 0.002, 0.02, 1, 2, &c)
                }),
            ),
            (
                "late_scatter",
                Box::new(|p| {
                    let c = p.comm_world();
                    mpi_coll::late_scatter(p, &base(), 0.002, 0.02, 0, 2, &c)
                }),
            ),
            (
                "late_scatterv",
                Box::new(|p| {
                    let c = p.comm_world();
                    mpi_coll::late_scatterv(p, &base(), 0.002, 0.02, 0, 2, &c)
                }),
            ),
            (
                "early_reduce",
                Box::new(|p| {
                    let c = p.comm_world();
                    mpi_coll::early_reduce(p, &base(), 0.002, 0.02, 0, 2, &c)
                }),
            ),
            (
                "early_gather",
                Box::new(|p| {
                    let c = p.comm_world();
                    mpi_coll::early_gather(p, &base(), 0.002, 0.02, 0, 2, &c)
                }),
            ),
            (
                "early_gatherv",
                Box::new(|p| {
                    let c = p.comm_world();
                    mpi_coll::early_gatherv(p, &base(), 0.002, 0.02, 0, 2, &c)
                }),
            ),
        ];
        for (name, body) in runs {
            let spec = ats_core::catalog::find(name).unwrap();
            let expected = spec.expected_property.unwrap();
            let trace = ats_mpi::run(cfg(4), |p| body(p));
            let report = analyze(&trace, &AnalyzerConfig::default());
            let sev = report.severity_of(expected);
            assert!(
                sev > 0.01,
                "{name}: expected {expected} with severity > 1%, got {sev}"
            );
            // Localization: some finding for the property sits at a call
            // path containing both the property frame and the MPI call.
            assert!(
                !report
                    .findings_at(expected, name, spec.localized_at)
                    .is_empty(),
                "{name}: no finding localized at {}/{}; findings: {:?}",
                name,
                spec.localized_at,
                report.findings
            );
        }
    }

    #[test]
    fn omp_properties_detected() {
        let df = Distr::linear(0.002, 0.020);
        let trace = ats_mpi::run(cfg(2), move |p| {
            with_omp(p, |m| {
                omp::imbalance_at_omp_barrier(m, 4, &df, 2);
                omp::imbalance_in_omp_pregion(m, 4, &df, 2);
                omp::omp_critical_contention(m, 4, 0.01, 0.0, 1);
            });
        });
        let report = analyze(&trace, &AnalyzerConfig::default());
        assert!(report.severity_of("OmpWaitAtBarrier") > 0.01);
        assert!(report.severity_of("OmpImbalanceInRegion") > 0.01);
        assert!(report.severity_of("OmpCriticalContention") > 0.01);
    }

    #[test]
    fn negative_suite_is_clean() {
        let trace = ats_mpi::run(cfg(4), |p| {
            let c = p.comm_world();
            negative::balanced_mpi_barrier(p, 0.01, 3, &c);
            negative::balanced_mpi_p2p(p, &base(), 0.005, 2, &c);
            negative::balanced_ring(p, &base(), 0.005, 2, &c);
            negative::balanced_mpi_collectives(p, &base(), 0.005, 0, 2, &c);
            with_omp(p, |m| {
                negative::balanced_omp_region(m, 4, 0.005, 2);
                negative::balanced_omp_loop(m, 4, 0.001, 4, 2);
            });
        });
        let report = analyze(&trace, &AnalyzerConfig::default());
        assert!(
            report.is_clean(),
            "negative suite produced findings: {:?}",
            report.findings
        );
    }

    #[test]
    fn severity_is_monotone_in_programmed_extrawork() {
        let mut severities = Vec::new();
        for extra in [0.005, 0.010, 0.020, 0.040] {
            let trace = ats_mpi::run(cfg(4), move |p| {
                let c = p.comm_world();
                mpi_p2p::late_sender(p, &base(), 0.005, extra, 3, &c);
            });
            let report = analyze(&trace, &AnalyzerConfig::default());
            severities.push(report.severity_of("LateSender"));
        }
        for w in severities.windows(2) {
            assert!(w[0] < w[1], "severity not monotone: {severities:?}");
        }
    }

    #[test]
    fn figure35_late_broadcast_localization() {
        // The paper's EXPERT experiment, scaled to 16 ranks: the upper
        // communicator (global ranks 8..16) runs late_broadcast with
        // communicator-local root 1 (= global rank 9). EXPERT found the
        // property at MPI_Bcast inside late_broadcast(), located at ranks
        // 8 and 10..15 (everyone in the upper half except the root).
        let params = CompositeParams {
            basework: 0.002,
            extrawork: 0.02,
            reps: 2,
            ..Default::default()
        };
        let trace = ats_mpi::run(cfg(16), move |p| {
            let c = p.comm_world();
            two_communicator_composite(p, &params, &c);
        });
        let report = analyze(&trace, &AnalyzerConfig::default());
        let hits = report.findings_for("LateBroadcast");
        assert!(!hits.is_empty(), "LateBroadcast not detected");
        assert!(
            hits.iter().any(
                |f| f.call_path.contains("late_broadcast") && f.call_path.contains("MPI_Bcast")
            ),
            "not localized in the call tree: {hits:?}"
        );
        let locs = report.locations_for("LateBroadcast");
        let expect: Vec<LocationId> = (8..16).filter(|&r| r != 9).map(LocationId::rank).collect();
        assert_eq!(locs, expect, "wrong machine localization");
        // And the lower half's properties were found too, in parallel.
        assert!(report.severity_of("LateSender") > 0.0);
        assert!(report.severity_of("LateReceiver") > 0.0);
    }

    #[test]
    fn setup_overhead_reported_when_enabled() {
        let mut config = cfg(2);
        config.init_time = VDur::from_millis(50);
        config.finalize_time = VDur::from_millis(30);
        let trace = ats_mpi::run(config, |p| {
            p.do_work(VDur::from_millis(5));
        });
        let off = analyze(&trace, &AnalyzerConfig::default());
        assert_eq!(off.severity_of("MpiSetupOverhead"), 0.0);
        let on = analyze(&trace, &AnalyzerConfig::default().with_setup_overhead());
        assert!(
            on.severity_of("MpiSetupOverhead") > 0.5,
            "init/finalize dominate this tiny program"
        );
    }

    #[test]
    fn threshold_filters_findings() {
        let trace = ats_mpi::run(cfg(4), |p| {
            let c = p.comm_world();
            mpi_p2p::late_sender(p, &base(), 0.01, 0.001, 1, &c); // tiny wait
        });
        let loose = analyze(&trace, &AnalyzerConfig::default().threshold(0.0001));
        let strict = analyze(&trace, &AnalyzerConfig::default().threshold(0.5));
        assert!(!loose.is_clean());
        assert!(strict.is_clean());
    }
}
