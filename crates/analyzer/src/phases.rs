//! Windowed (phase) analysis: severity as a function of *time*.
//!
//! The paper sketches property functions "where the severity of the
//! pattern is a function of the iteration number". A tool that only
//! reports whole-run aggregates cannot distinguish a constant 10%
//! imbalance from one that grows from 0% to 20% — yet the second is the
//! one that kills scalability. This module splits the run into equal time
//! windows, evaluates the analyzer's property set, spreads every
//! finding's wait over the windows its interval overlaps (so each
//! property's windowed waits sum to its aggregate), and reports
//! per-window severities plus a rank-correlation trend — the instrument
//! that makes the progressive property functions testable.

use crate::asl::default_property_set;
use crate::extract::extract;
use crate::patterns::match_messages;
use crate::property::PropertyKind;
use ats_runtime::VDur;
use ats_trace::Trace;
use std::collections::HashMap;

/// Per-window severities for one property.
#[derive(Debug, Clone)]
pub struct PhaseSeries {
    /// The property.
    pub property: String,
    /// Waiting time per window (seconds).
    pub waits: Vec<f64>,
    /// Waiting time / window allocation time, per window.
    pub severities: Vec<f64>,
    /// Kendall rank correlation of severity against window index:
    /// +1 = strictly growing, −1 = strictly shrinking, ~0 = flat/noisy.
    pub trend: f64,
}

/// The result of a windowed analysis.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    /// Number of windows.
    pub windows: usize,
    /// Window length.
    pub window_len: VDur,
    /// One series per property with any nonzero wait.
    pub series: Vec<PhaseSeries>,
}

/// Kendall tau between a sequence and its index order.
fn trend_of(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let mut concordant = 0i64;
    let mut discordant = 0i64;
    for i in 0..n {
        for j in (i + 1)..n {
            let d = values[j] - values[i];
            if d > 0.0 {
                concordant += 1;
            } else if d < 0.0 {
                discordant += 1;
            }
        }
    }
    (concordant - discordant) as f64 / (n * (n - 1) / 2) as f64
}

/// Evaluate the default property set and bin every finding's wait
/// interval `[start, start + wait)` into `windows` equal time windows,
/// spreading it proportionally over the windows it overlaps (so
/// densities are alias-free); the window's allocation denominator is
/// `locations × window length`. Setup overhead is not binned.
pub fn analyze_phases(trace: &Trace, windows: usize) -> PhaseReport {
    assert!(windows > 0, "need at least one window");
    let ex = extract(trace);
    let t0 = trace.start_time();
    let t1 = trace.end_time();
    let span = (t1 - t0).as_nanos().max(1);
    let window_len = VDur::from_nanos(span / windows as u64 + 1);
    let wl = window_len.as_nanos().max(1);

    let mut buckets: HashMap<PropertyKind, Vec<VDur>> = HashMap::new();
    let set = default_property_set();
    let pairs = match_messages(&ex);
    set.each_finding(&ex, &pairs, trace, |f| {
        let kind = set.kind(f.property);
        let Some(prop) = kind.filter(|k| *k != PropertyKind::MpiSetupOverhead) else {
            return;
        };
        let b = buckets
            .entry(prop)
            .or_insert_with(|| vec![VDur::ZERO; windows]);
        let s = (f.start - t0).as_nanos();
        let e = (f.start + f.wait - t0).as_nanos();
        let first = (s / wl) as usize;
        let last = ((e.saturating_sub(1)) / wl) as usize;
        let last = last.min(windows - 1);
        for (w, bucket) in b.iter_mut().enumerate().take(last + 1).skip(first) {
            let w_start = w as u64 * wl;
            let w_end = w_start + wl;
            let overlap = e.min(w_end).saturating_sub(s.max(w_start));
            *bucket += VDur::from_nanos(overlap);
        }
    })
    .expect("the default set cannot overflow: each wait is a difference of trace times");

    let window_alloc = window_len.as_secs() * trace.num_locations() as f64;
    let mut series: Vec<PhaseSeries> = buckets
        .into_iter()
        .map(|(prop, waits)| {
            let waits_s: Vec<f64> = waits.iter().map(|w| w.as_secs()).collect();
            let severities: Vec<f64> = waits_s
                .iter()
                .map(|w| {
                    if window_alloc > 0.0 {
                        w / window_alloc
                    } else {
                        0.0
                    }
                })
                .collect();
            PhaseSeries {
                property: prop.name().to_owned(),
                trend: trend_of(&severities),
                waits: waits_s,
                severities,
            }
        })
        .collect();
    series.sort_by(|a, b| a.property.cmp(&b.property));
    PhaseReport {
        windows,
        window_len,
        series,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg;
    use ats_core::{
        properties::{mpi_coll, mpi_p2p},
        BaseComm, Distr,
    };
    use ats_mpi::SimConfig;

    impl PhaseReport {
        /// The series for `property`, if it produced any waiting.
        fn series_for(&self, property: &str) -> Option<&PhaseSeries> {
            self.series.iter().find(|s| s.property == property)
        }
    }

    #[test]
    fn growing_imbalance_has_a_positive_trend() {
        let trace = ats_mpi::run(cfg(4), |p| {
            let c = p.comm_world();
            mpi_coll::growing_imbalance_at_mpi_barrier(p, 0.004, 0.004, 8, &c);
        });
        let report = analyze_phases(&trace, 6);
        let s = report.series_for("WaitAtBarrier").expect("waits exist");
        assert!(
            s.trend > 0.5,
            "growth must be visible: trend {} series {:?}",
            s.trend,
            s.severities
        );
        let half = s.waits.len() / 2;
        let first: f64 = s.waits[..half].iter().sum();
        let second: f64 = s.waits[half..].iter().sum();
        assert!(
            second > first * 1.2,
            "second half must carry more waiting: {first} vs {second}"
        );
    }

    #[test]
    fn multiplicative_progressive_keeps_the_fraction_flat() {
        // The paper's scale-factor variant scales work and wait together:
        // the per-window *fraction* is constant — exactly the contrast the
        // additive `growing_` variant exists to provide.
        let df = Distr::block2(0.002, 0.010);
        let trace = ats_mpi::run(cfg(4), move |p| {
            let c = p.comm_world();
            mpi_coll::progressive_imbalance_at_mpi_barrier(p, &df, 1.0, 6, &c);
        });
        let report = analyze_phases(&trace, 4);
        let s = report.series_for("WaitAtBarrier").expect("waits exist");
        let max = s.severities.iter().cloned().fold(0.0, f64::max);
        let min = s.severities.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            max - min < 0.25,
            "fraction roughly flat: {:?}",
            s.severities
        );
    }

    #[test]
    fn constant_imbalance_is_flat() {
        let df = Distr::block2(0.002, 0.010);
        let trace = ats_mpi::run(cfg(4), move |p| {
            let c = p.comm_world();
            mpi_coll::imbalance_at_mpi_barrier(p, &df, 6, &c);
        });
        let report = analyze_phases(&trace, 6);
        let s = report.series_for("WaitAtBarrier").expect("waits exist");
        assert!(
            s.trend.abs() < 0.5,
            "constant imbalance should not trend: {} {:?}",
            s.trend,
            s.severities
        );
        // Roughly equal waits in every window.
        let max = s.waits.iter().cloned().fold(0.0, f64::max);
        let min = s.waits.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max - min < max * 0.6, "windows {:?}", s.waits);
    }

    #[test]
    fn total_windowed_wait_equals_aggregate() {
        let df = Distr::linear(0.001, 0.013);
        let trace = ats_mpi::run(cfg(4), move |p| {
            let c = p.comm_world();
            mpi_coll::imbalance_at_mpi_barrier(p, &df, 3, &c);
        });
        let phases = analyze_phases(&trace, 5);
        let windowed: f64 = phases
            .series_for("WaitAtBarrier")
            .unwrap()
            .waits
            .iter()
            .sum();
        let report = crate::analyze(&trace, &crate::AnalyzerConfig::default().threshold(0.0));
        let aggregate = report
            .cube
            .by_property(PropertyKind::WaitAtBarrier)
            .as_secs();
        assert!((windowed - aggregate).abs() < 1e-9);
    }

    #[test]
    fn every_property_of_wrong_order_messages_is_binned_exactly() {
        let trace = ats_mpi::run(
            SimConfig {
                nprocs: 8,
                ..Default::default()
            },
            |p| {
                let c = p.comm_world();
                mpi_p2p::messages_in_wrong_order(p, &BaseComm::default(), 0.002, 0.02, 4, &c)
            },
        );
        let phases = analyze_phases(&trace, 8);
        let report = crate::analyze(&trace, &crate::AnalyzerConfig::default().threshold(0.0));
        let mut checked = Vec::new();
        for &prop in PropertyKind::leaves() {
            let aggregate = report.cube.by_property(prop).as_secs();
            if aggregate == 0.0 {
                continue;
            }
            let windowed: f64 = phases
                .series_for(prop.name())
                .unwrap_or_else(|| panic!("{} has no series", prop.name()))
                .waits
                .iter()
                .sum();
            assert!(
                (windowed - aggregate).abs() < 1e-9,
                "{}: windowed {windowed} vs aggregate {aggregate}",
                prop.name()
            );
            checked.push(prop.name());
        }
        assert!(checked.contains(&"MessagesWrongOrder"), "{checked:?}");
    }

    #[test]
    fn single_window_degenerates_to_aggregate() {
        let df = Distr::block2(0.001, 0.005);
        let trace = ats_mpi::run(cfg(4), move |p| {
            let c = p.comm_world();
            mpi_coll::imbalance_at_mpi_barrier(p, &df, 2, &c);
        });
        let phases = analyze_phases(&trace, 1);
        let s = phases.series_for("WaitAtBarrier").unwrap();
        assert_eq!(s.waits.len(), 1);
        assert_eq!(s.trend, 0.0);
    }
}
